//! The L2BM buffer-management policy (paper §III-C), and BShare, which
//! reads the same sojourn signal through a different weight.

use dcn_sim::{Bytes, SimTime};
use dcn_switch::{BufferPolicy, MmuState, QueueIndex};

use crate::config::{L2bmConfig, Normalization};
use crate::sojourn::SojournModule;

/// BShare's control factor for queues that miss the delay target.
const BSHARE_ALPHA: f64 = 0.5;
/// BShare's absolute queueing-delay target, 50 µs in the sojourn
/// module's ns.
const BSHARE_DELAY_TARGET_NS: f64 = 50_000.0;
/// BShare's weight floor, so even the worst hog keeps a trickle of
/// admission.
const BSHARE_MIN_WEIGHT: f64 = 1.0 / 64.0;
/// BShare's weight for queues meeting the delay target: at most the
/// whole remaining buffer.
const BSHARE_MAX_WEIGHT: f64 = 1.0;
/// `τ` or `C` at or below `f64::EPSILON` seconds, in ns, counts as zero.
const ZERO_NS: f64 = f64::EPSILON * 1e9;

/// How the sojourn signal becomes a control weight.
#[derive(Debug, Clone, Copy)]
enum Rule {
    /// L2BM (Eq. 4): `w(q) = min(α · C / τ(q), w_max)`; `fixed_c` is
    /// `Normalization::Fixed`'s `C` in ns.
    L2bm {
        cfg: L2bmConfig,
        fixed_c: Option<f64>,
    },
    /// BShare (PAPERS.md), adapted to the ingress pool: a queue whose
    /// average sojourn `τ(q)` meets the delay target keeps `w_max`;
    /// otherwise `w(q) = max(w_min, α · (1 − τ(q)/C))`. Where L2BM
    /// scales by *relative* drain speed, BShare enforces an *absolute*
    /// target: a queue meeting it is never penalized however slow its
    /// peers are, and the sole violator on a switch is squeezed to the
    /// floor (`τ/C → 1`). Paused time is always excluded.
    BShare,
}

/// L2BM: Dynamic Threshold with a congestion-perception factor.
///
/// The PFC threshold of ingress queue `q` is
/// `T(q) = w(q) · (B − Q(t))` with `w(q) = min(α · C / τ(q), w_max)`
/// (paper Eqs. 3–4). `τ(q)` comes from the [`SojournModule`]; an idle or
/// instantly-draining queue (`τ = 0`) gets the capped weight `w_max`,
/// letting it absorb bursts with the whole remaining buffer, while a
/// queue whose packets linger behind congested output ports is squeezed
/// below the plain-DT allotment.
///
/// [`L2bmPolicy::bshare`] builds BShare on the same module: same
/// threshold shape, same hooks, a delay-target weight.
#[derive(Debug)]
pub struct L2bmPolicy {
    rule: Rule,
    /// Whether packets behind a paused egress stop decaying (§III-D),
    /// decided once for the enqueue, dequeue and pause hooks.
    freeze: bool,
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
        let fixed_c = match cfg.normalization {
            Normalization::SumActiveTau => None,
            // The one conversion of a configured time to the module's ns.
            Normalization::Fixed(c) => Some(c * 1e9),
        };
        L2bmPolicy {
            rule: Rule::L2bm { cfg, fixed_c },
            freeze: cfg.pause_freeze,
            sojourn: SojournModule::new(),
        }
    }

    /// BShare: queueing-delay-target-driven sharing with a 50 µs target.
    pub fn bshare() -> Self {
        L2bmPolicy {
            rule: Rule::BShare,
            freeze: true,
            sojourn: SojournModule::new(),
        }
    }

    /// The control weight `w(q)` at `now` (Eq. 4 for L2BM). Reading `C`
    /// advances the sojourn module's aggregate.
    pub fn weight(&mut self, q: QueueIndex, now: SimTime) -> f64 {
        let tau = self.sojourn.tau_ns(q, now);
        self.rule.weight(tau, || self.sojourn.sum_tau_ns(now))
    }

    /// Reference recomputation of [`L2bmPolicy::weight`] using the
    /// sojourn module's full-scan `C` instead of the incremental one.
    /// Kept for differential testing — not for the admission path.
    pub fn weight_naive(&self, q: QueueIndex, now: SimTime) -> f64 {
        let tau = self.sojourn.tau_ns(q, now);
        self.rule
            .weight(tau, || self.sojourn.sum_active_tau_naive(now) * 1e9)
    }
}

impl Rule {
    /// The weight of a queue whose average sojourn is `tau` ns, reading
    /// `C` (ns) from `sum_tau` only where the rule needs it.
    fn weight(self, tau: f64, sum_tau: impl FnOnce() -> f64) -> f64 {
        match self {
            Rule::L2bm { cfg, fixed_c } => {
                let c = fixed_c.unwrap_or_else(sum_tau);
                if tau <= ZERO_NS || c <= ZERO_NS {
                    return cfg.max_weight;
                }
                (cfg.alpha * c / tau).min(cfg.max_weight)
            }
            Rule::BShare => {
                // Read C even when the target is met: each read advances
                // the aggregate, and a skipped advance rounds differently.
                let c = sum_tau();
                if tau <= BSHARE_DELAY_TARGET_NS {
                    return BSHARE_MAX_WEIGHT;
                }
                // The queue's share of the aggregate delay: 1 when it *is*
                // the aggregate (sole violator), small when peers dominate.
                let share = if c <= tau { 1.0 } else { tau / c };
                (BSHARE_ALPHA * (1.0 - share)).max(BSHARE_MIN_WEIGHT)
            }
        }
    }
}

impl Default for L2bmPolicy {
    fn default() -> Self {
        L2bmPolicy::new(L2bmConfig::default())
    }
}

impl BufferPolicy for L2bmPolicy {
    fn pfc_threshold(&mut self, mmu: &MmuState, q: QueueIndex, now: SimTime) -> Bytes {
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
        let frozen = self.freeze && mmu.egress_paused(q_out);
        self.sojourn.on_enqueue(mmu, now, q_in, q_out, frozen);
    }

    fn on_dequeue(
        &mut self,
        mmu: &MmuState,
        now: SimTime,
        q_in: QueueIndex,
        q_out: QueueIndex,
        _size: Bytes,
    ) {
        let frozen = self.freeze && mmu.egress_paused(q_out);
        self.sojourn.on_dequeue(now, q_in, frozen);
    }

    fn on_egress_pause_changed(
        &mut self,
        now: SimTime,
        q_out: QueueIndex,
        paused: bool,
        queued_from: &[u32],
    ) {
        if self.freeze {
            self.sojourn
                .on_pause_changed(now, q_out, paused, queued_from);
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
        let mut p = L2bmPolicy::default();
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

    #[test]
    fn bshare_queue_under_target_gets_full_weight() {
        let mut p = L2bmPolicy::bshare();
        let m = mmu();
        // Idle queue: τ = 0 ≤ target -> the whole remaining pool.
        assert_eq!(
            p.pfc_threshold(&m, q(0, 3), SimTime::ZERO),
            m.shared_remaining()
        );
    }

    #[test]
    fn bshare_sole_violator_is_squeezed_to_floor() {
        let mut p = L2bmPolicy::bshare();
        let mut m = mmu();
        // 1 MB behind a 25 Gbps port: τ ≈ 320 µs >> 50 µs target, and
        // this queue is the whole aggregate.
        enqueue(&mut m, &mut p, SimTime::ZERO, q(0, 3), q(1, 3), 1_000_000);
        let w = p.weight(q(0, 3), SimTime::ZERO);
        assert!(
            (w - BSHARE_MIN_WEIGHT).abs() < 1e-12,
            "sole violator floors: {w}"
        );
    }

    #[test]
    fn bshare_violator_among_busy_peers_keeps_more() {
        let mut p = L2bmPolicy::bshare();
        let mut m = mmu();
        enqueue(&mut m, &mut p, SimTime::ZERO, q(0, 3), q(1, 3), 1_000_000);
        // A peer with an even larger backlog on a different egress port.
        enqueue(&mut m, &mut p, SimTime::ZERO, q(2, 3), q(3, 3), 2_000_000);
        let w = p.weight(q(0, 3), SimTime::ZERO);
        assert!(
            w > BSHARE_MIN_WEIGHT + 1e-9,
            "peer delay dilutes the share: {w}"
        );
        assert!(w < BSHARE_MAX_WEIGHT);
    }

    #[test]
    fn weight_matches_naive_reference_for_both_rules() {
        for mut p in [L2bmPolicy::default(), L2bmPolicy::bshare()] {
            let mut m = mmu();
            enqueue(&mut m, &mut p, SimTime::ZERO, q(0, 3), q(1, 3), 500_000);
            let t3 = SimTime::from_micros(3);
            enqueue(&mut m, &mut p, t3, q(2, 3), q(3, 3), 125_000);
            for us in [3u64, 10, 42, 200, 1_000] {
                let t = SimTime::from_micros(us);
                let a = p.weight(q(0, 3), t);
                let b = p.weight_naive(q(0, 3), t);
                assert!((a - b).abs() <= 1e-9, "{:?} at {us}µs: {a} vs {b}", p.rule);
            }
        }
    }
}
