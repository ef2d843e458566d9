//! The pluggable buffer-management (PFC-threshold) policy interface and
//! the two baselines the paper compares against.
//!
//! A policy answers one question — *how many shared-pool bytes may
//! ingress queue `q` hold before the switch sends XOFF (lossless) or
//! drops (lossy)?* — and may observe enqueue/dequeue/pause events to
//! maintain its own state (L2BM's sojourn-time module does).

use std::fmt::Debug;

use dcn_sim::{Bytes, SimTime};

use crate::mmu::{MmuState, QueueIndex};

/// A PFC-threshold algorithm for the ingress pool.
///
/// Implementations must be deterministic functions of the MMU state and
/// their own event-driven state; the switch invokes the callbacks *after*
/// updating the MMU counters for the triggering packet.
pub trait BufferPolicy: Debug {
    /// Short name used in reports ("DT", "ABM", "L2BM"...).
    fn name(&self) -> &str;

    /// The current shared-pool threshold for ingress queue `q` at
    /// simulated time `now`.
    fn pfc_threshold(&self, mmu: &MmuState, q: QueueIndex, now: SimTime) -> Bytes;

    /// A packet of `size` bytes entered via `q_in`, queued at `q_out`.
    /// MMU counters already include it.
    fn on_enqueue(
        &mut self,
        mmu: &MmuState,
        now: SimTime,
        q_in: QueueIndex,
        q_out: QueueIndex,
        size: Bytes,
    ) {
        let _ = (mmu, now, q_in, q_out, size);
    }

    /// A packet of `size` bytes departed. MMU counters already exclude it.
    fn on_dequeue(
        &mut self,
        mmu: &MmuState,
        now: SimTime,
        q_in: QueueIndex,
        q_out: QueueIndex,
        size: Bytes,
    ) {
        let _ = (mmu, now, q_in, q_out, size);
    }

    /// The downstream pause state of egress queue `q_out` changed. The
    /// MMU already reflects the new state.
    fn on_egress_pause_changed(
        &mut self,
        mmu: &MmuState,
        now: SimTime,
        q_out: QueueIndex,
        paused: bool,
    ) {
        let _ = (mmu, now, q_out, paused);
    }

    /// Plans a preemptive eviction after admission has rejected an
    /// arrival: given the rejected packet (ingress queue `q_in`,
    /// intended egress queue `q_out`, `size` wire bytes), names the
    /// egress queue whose *newest* packet should be evicted to make
    /// room, or `None` to let the drop stand. The switch pops the
    /// victim queue's tail, reverses its MMU charge, and re-tests
    /// admission, calling the hook again while the arrival still does
    /// not fit (bounded by a per-arrival eviction cap). Only lossy
    /// packets are ever evicted — a victim whose tail turns out to be
    /// lossless aborts the attempt.
    ///
    /// The default implementation returns `None`, which keeps every
    /// non-preemptive policy on a rejection path byte-identical to a
    /// build without the hook: no extra events, no extra RNG draws.
    fn plan_eviction(
        &self,
        mmu: &MmuState,
        now: SimTime,
        q_in: QueueIndex,
        q_out: QueueIndex,
        size: Bytes,
    ) -> Option<QueueIndex> {
        let _ = (mmu, now, q_in, q_out, size);
        None
    }
}

/// Classic Dynamic Threshold (Choudhury & Hahne): every queue's threshold
/// is `α × (B − Q(t))`, the remaining shared buffer scaled by one global
/// control factor.
///
/// The paper evaluates `α = 0.125` ("DT", Microsoft's RoCEv2 setting) and
/// `α = 0.5` ("DT2", a common switch default).
///
/// # Example
///
/// ```
/// use dcn_switch::DtPolicy;
/// let dt = DtPolicy::new(0.125);
/// let dt2 = DtPolicy::new(0.5);
/// assert_ne!(dt.alpha(), dt2.alpha());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DtPolicy {
    alpha: f64,
}

impl DtPolicy {
    /// Creates a DT policy with control factor `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not positive and finite.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha.is_finite(), "alpha must be positive");
        DtPolicy { alpha }
    }

    /// The control factor.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl BufferPolicy for DtPolicy {
    fn name(&self) -> &str {
        "DT"
    }

    fn pfc_threshold(&self, mmu: &MmuState, _q: QueueIndex, _now: SimTime) -> Bytes {
        mmu.shared_remaining().scale(self.alpha)
    }
}

/// ABM (Active Buffer Management, SIGCOMM'22) applied to the ingress
/// pool, as the paper's comparison does:
///
/// `T(q) = α / n_p × (B − Q(t)) × d(q)`
///
/// where `n_p` is the number of congested ingress queues of `q`'s
/// priority (≥ 1 MTU buffered) and `d(q)` is the queue's measured drain
/// rate normalized by its port speed. ABM was designed for egress pools
/// and lossy traffic only; the paper's point — which this reproduction
/// preserves — is that even adapted to ingress, it cannot account for
/// flow control (see DESIGN.md interpretation notes).
#[derive(Debug, Clone, PartialEq)]
pub struct AbmPolicy {
    alpha: f64,
}

/// Floor on ABM's normalized-drain factor. ABM measures dequeue rates
/// at egress queues; transplanted to ingress queues the raw measurement
/// is noisy enough to starve queues outright, so the factor is clamped
/// to `[ABM_DRAIN_FLOOR, 1]`.
const ABM_DRAIN_FLOOR: f64 = 0.25;

impl AbmPolicy {
    /// Creates ABM with control factor `alpha` for every priority.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not positive and finite.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha.is_finite(), "alpha must be positive");
        AbmPolicy { alpha }
    }
}

impl BufferPolicy for AbmPolicy {
    fn name(&self) -> &str {
        "ABM"
    }

    fn pfc_threshold(&self, mmu: &MmuState, q: QueueIndex, _now: SimTime) -> Bytes {
        let n_p = mmu.congested_ingress_count(q.priority).max(1) as f64;
        let drain = mmu.ingress_normalized_drain(q).max(ABM_DRAIN_FLOOR);
        let factor = self.alpha / n_p * drain;
        mmu.shared_remaining().scale(factor)
    }
}

/// Occamy-style preemptive buffer management: a DT-shaped threshold
/// (`α × (B − Q(t))`) plus *preemption* — when an arrival is rejected,
/// the policy names the most buffer-hogging unprotected egress queue and
/// the switch evicts that queue's newest packet to make room, repeating
/// until the arrival fits or no eligible victim remains.
///
/// Victim selection is a deterministic scan in flat queue order
/// (`port × priority`): the candidate with the most egress-queued bytes
/// wins, ties going to the lowest flat index. Two guards keep preemption
/// from eating itself:
///
/// * priorities in the *protected* set (the lossless/RDMA classes) are
///   never selected, and
/// * when the arrival's own egress queue is itself evictable, a victim
///   must hold *strictly more* bytes than it — a queue cannot churn its
///   peers to grow past them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OccamyPolicy {
    alpha: f64,
    /// Bit `i` set ⇔ priority `i` is never selected as an eviction victim.
    protected: u8,
}

impl OccamyPolicy {
    /// Creates an Occamy policy with control factor `alpha` and no
    /// protected priorities.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not positive and finite.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha.is_finite(), "alpha must be positive");
        OccamyPolicy {
            alpha,
            protected: 0,
        }
    }

    /// Marks `priorities` as never-evictable (the lossless classes).
    pub fn with_protected_priorities(mut self, priorities: &[dcn_net::Priority]) -> Self {
        for p in priorities {
            self.protected |= 1 << p.index();
        }
        self
    }

    /// The control factor.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Whether `priority` is exempt from eviction.
    pub fn is_protected(&self, priority: dcn_net::Priority) -> bool {
        self.protected & (1 << priority.index()) != 0
    }
}

impl BufferPolicy for OccamyPolicy {
    fn name(&self) -> &str {
        "Occamy"
    }

    fn pfc_threshold(&self, mmu: &MmuState, _q: QueueIndex, _now: SimTime) -> Bytes {
        mmu.shared_remaining().scale(self.alpha)
    }

    fn plan_eviction(
        &self,
        mmu: &MmuState,
        _now: SimTime,
        _q_in: QueueIndex,
        q_out: QueueIndex,
        _size: Bytes,
    ) -> Option<QueueIndex> {
        // The bar a victim must clear: non-empty, and deeper than the
        // arrival's own queue when that queue could itself be evicted.
        let own = if self.is_protected(q_out.priority) {
            Bytes::ZERO
        } else {
            mmu.egress_bytes(q_out)
        };
        let mut best: Option<(Bytes, QueueIndex)> = None;
        for port in 0..mmu.port_count() {
            for priority in dcn_net::Priority::all() {
                if self.is_protected(priority) {
                    continue;
                }
                let q = QueueIndex::new(dcn_net::PortId::new(port as u16), priority);
                let bytes = mmu.egress_bytes(q);
                // Strict `>` on both bars keeps the first (lowest flat
                // index) queue on ties — the documented determinism rule.
                if bytes > own && best.is_none_or(|(b, _)| bytes > b) {
                    best = Some((bytes, q));
                }
            }
        }
        best.map(|(_, q)| q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SwitchConfig;
    use crate::mmu::Pool;
    use dcn_net::{PortId, Priority};
    use dcn_sim::{BitRate, SimTime};

    fn mmu() -> MmuState {
        MmuState::new(&SwitchConfig::default(), vec![BitRate::from_gbps(25); 4])
    }

    fn q(port: u16, prio: u8) -> QueueIndex {
        QueueIndex::new(PortId::new(port), Priority::new(prio))
    }

    #[test]
    fn dt_threshold_tracks_remaining() {
        let mut m = mmu();
        let dt = DtPolicy::new(0.125);
        // Empty switch: T = 0.125 × 4 MB = 500 KB.
        assert_eq!(
            dt.pfc_threshold(&m, q(0, 3), SimTime::ZERO),
            Bytes::new(500_000)
        );
        // Fill 2 MB: T halves.
        m.charge_bulk(q(1, 3), q(2, 3), Bytes::from_mb(2), Pool::Shared);
        assert_eq!(
            dt.pfc_threshold(&m, q(0, 3), SimTime::ZERO),
            Bytes::new(250_000)
        );
    }

    #[test]
    fn dt_threshold_is_queue_independent() {
        let m = mmu();
        let dt = DtPolicy::new(0.5);
        assert_eq!(
            dt.pfc_threshold(&m, q(0, 1), SimTime::ZERO),
            dt.pfc_threshold(&m, q(3, 7), SimTime::ZERO)
        );
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn dt_rejects_zero_alpha() {
        let _ = DtPolicy::new(0.0);
    }

    #[test]
    fn abm_divides_by_congested_count() {
        let mut m = mmu();
        let abm = AbmPolicy::new(0.5);
        let base = abm.pfc_threshold(&m, q(0, 3), SimTime::ZERO);
        // Make two other queues of the same priority congested (≥ MTU).
        for port in 1..3 {
            let qi = q(port, 3);
            let c = m.plan_charge(qi, Bytes::new(2_000), Pool::Shared);
            m.charge(qi, q(3, 3), c);
        }
        let t = abm.pfc_threshold(&m, q(0, 3), SimTime::ZERO);
        // Remaining shrank by 4 KB and n_p went from 1 to 2.
        assert!(t < base.scale(0.51));
        // Other priorities are unaffected by priority-3 congestion.
        let other = abm.pfc_threshold(&m, q(0, 1), SimTime::ZERO);
        assert!(other > t);
    }

    #[test]
    fn abm_scales_with_drain() {
        let m = mmu();
        let abm = AbmPolicy::new(0.5);
        // Fresh queue: optimistic drain 1.0 => same as DT(0.5).
        let dt = DtPolicy::new(0.5);
        assert_eq!(
            abm.pfc_threshold(&m, q(0, 3), SimTime::ZERO),
            dt.pfc_threshold(&m, q(0, 3), SimTime::ZERO)
        );
    }

    /// Charges `bytes` into egress queue `eq` (ingress chosen disjointly).
    fn fill_egress(m: &mut MmuState, eq: QueueIndex, bytes: u64) {
        let c = m.plan_charge(q(0, eq.priority.as_u8()), Bytes::new(bytes), Pool::Shared);
        m.charge(q(0, eq.priority.as_u8()), eq, c);
    }

    #[test]
    fn occamy_threshold_matches_dt() {
        let m = mmu();
        let occ = OccamyPolicy::new(0.5);
        let dt = DtPolicy::new(0.5);
        assert_eq!(
            occ.pfc_threshold(&m, q(0, 3), SimTime::ZERO),
            dt.pfc_threshold(&m, q(0, 3), SimTime::ZERO)
        );
    }

    #[test]
    fn occamy_picks_deepest_unprotected_queue() {
        let mut m = mmu();
        let occ = OccamyPolicy::new(0.5).with_protected_priorities(&[Priority::new(3)]);
        fill_egress(&mut m, q(1, 1), 5_000);
        fill_egress(&mut m, q(2, 1), 9_000);
        fill_egress(&mut m, q(2, 3), 50_000); // deepest, but protected
        let victim = occ.plan_eviction(&m, SimTime::ZERO, q(0, 3), q(3, 3), Bytes::new(1_000));
        assert_eq!(victim, Some(q(2, 1)), "deepest lossy queue wins");
    }

    #[test]
    fn occamy_returns_none_on_empty_switch() {
        let m = mmu();
        let occ = OccamyPolicy::new(0.5);
        assert_eq!(
            occ.plan_eviction(&m, SimTime::ZERO, q(0, 1), q(1, 1), Bytes::new(1_000)),
            None
        );
    }

    #[test]
    fn occamy_requires_victim_deeper_than_own_evictable_queue() {
        let mut m = mmu();
        let occ = OccamyPolicy::new(0.5);
        fill_egress(&mut m, q(1, 1), 9_000);
        fill_egress(&mut m, q(2, 1), 5_000);
        // Arrival bound for the deepest queue itself: nothing is deeper.
        assert_eq!(
            occ.plan_eviction(&m, SimTime::ZERO, q(0, 1), q(1, 1), Bytes::new(1_000)),
            None
        );
        // Arrival bound for the shallower queue: the deep one is fair game.
        assert_eq!(
            occ.plan_eviction(&m, SimTime::ZERO, q(0, 1), q(2, 1), Bytes::new(1_000)),
            Some(q(1, 1))
        );
    }

    #[test]
    fn occamy_tie_breaks_to_lowest_flat_index() {
        let mut m = mmu();
        let occ = OccamyPolicy::new(0.5);
        fill_egress(&mut m, q(2, 1), 5_000);
        fill_egress(&mut m, q(1, 1), 5_000);
        let victim = occ.plan_eviction(&m, SimTime::ZERO, q(0, 3), q(3, 3), Bytes::new(1_000));
        assert_eq!(victim, Some(q(1, 1)));
    }

    #[test]
    fn non_preemptive_policies_never_plan_evictions() {
        let mut m = mmu();
        fill_egress(&mut m, q(1, 1), 9_000);
        let at = SimTime::ZERO;
        let dt = DtPolicy::new(0.125);
        let abm = AbmPolicy::new(0.5);
        assert_eq!(
            dt.plan_eviction(&m, at, q(0, 1), q(2, 1), Bytes::new(1_000)),
            None
        );
        assert_eq!(
            abm.plan_eviction(&m, at, q(0, 1), q(2, 1), Bytes::new(1_000)),
            None
        );
    }
}
