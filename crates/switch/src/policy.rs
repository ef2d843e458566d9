//! The pluggable buffer-management (PFC-threshold) policy interface and
//! the Dynamic Threshold baseline, with and without preemption.
//!
//! A policy answers one question — *how many shared-pool bytes may
//! ingress queue `q` hold before the switch sends XOFF (lossless) or
//! drops (lossy)?* — and may observe enqueue/dequeue/pause events to
//! maintain its own state (ABM's drain estimator and L2BM's sojourn-time
//! module do).

use std::fmt::Debug;

use dcn_net::{PortId, Priority};
use dcn_sim::{Bytes, SimTime};

use crate::mmu::{MmuState, QueueIndex};

/// A PFC-threshold algorithm for the ingress pool.
///
/// Implementations must be deterministic functions of the MMU state and
/// their own event-driven state; the switch invokes the callbacks *after*
/// updating the MMU counters for the triggering packet, at every site
/// that charges or discharges.
pub trait BufferPolicy: Debug {
    /// The current shared-pool threshold for ingress queue `q` at
    /// simulated time `now`. A read may advance the policy's own
    /// time-driven state (L2BM's `Σ τ` aggregate).
    fn pfc_threshold(&mut self, mmu: &MmuState, q: QueueIndex, now: SimTime) -> Bytes;

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

    /// The downstream pause state of egress queue `q_out` changed.
    /// `queued_from[p]` counts the packets of ingress port `p` (at
    /// `q_out`'s priority) charged to `q_out` and not yet departed: its
    /// FIFO plus the packet on the wire.
    fn on_egress_pause_changed(
        &mut self,
        now: SimTime,
        q_out: QueueIndex,
        paused: bool,
        queued_from: &[u32],
    ) {
        let _ = (now, q_out, paused, queued_from);
    }

    /// Plans a preemptive eviction after admission has rejected an
    /// arrival bound for egress queue `q_out`: names the egress queue
    /// whose *newest* packet should be evicted to make room, or `None` to
    /// let the drop stand. The switch pops the victim queue's tail,
    /// reverses its MMU charge, and re-tests admission, calling the hook
    /// again while the arrival still does not fit (bounded by a
    /// per-arrival eviction cap). Only lossy packets are ever evicted — a
    /// victim whose tail turns out to be lossless aborts the attempt.
    ///
    /// The default implementation returns `None`, which keeps every
    /// non-preemptive policy on a rejection path byte-identical to a
    /// build without the hook: no extra events, no extra RNG draws.
    fn plan_eviction(&self, mmu: &MmuState, q_out: QueueIndex) -> Option<QueueIndex> {
        let _ = (mmu, q_out);
        None
    }
}

/// Classic Dynamic Threshold (Choudhury & Hahne): every queue's threshold
/// is `α × (B − Q(t))`, the remaining shared buffer scaled by one global
/// control factor.
///
/// The paper evaluates `α = 0.125` ("DT", Microsoft's RoCEv2 setting) and
/// `α = 0.5` ("DT2", a common switch default). Built with
/// [`DtPolicy::preempting`], it is Occamy: the same threshold plus
/// preemptive eviction of the deepest unprotected lossy backlog.
///
/// # Example
///
/// ```
/// use dcn_net::Priority;
/// use dcn_switch::DtPolicy;
/// let dt2 = DtPolicy::new(0.5);
/// let occamy = DtPolicy::new(0.5).preempting(&[Priority::new(3)]);
/// assert_ne!(dt2, occamy);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DtPolicy {
    alpha: f64,
    /// `None`: never evicts. `Some(mask)`: evicts, and bit `i` set ⇔
    /// priority `i` is never selected as a victim.
    protected: Option<u8>,
}

impl DtPolicy {
    /// Creates a DT policy with control factor `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not positive and finite.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha.is_finite(), "alpha must be positive");
        DtPolicy {
            alpha,
            protected: None,
        }
    }

    /// Turns on Occamy-style preemption: when an arrival is rejected,
    /// the policy names the most buffer-hogging egress queue outside
    /// `protected` (the lossless classes), and the switch evicts that
    /// queue's newest packet to make room, repeating until the arrival
    /// fits or no eligible victim remains.
    ///
    /// Victim selection is a deterministic scan in flat queue order
    /// (`port × priority`): the candidate with the most egress-queued
    /// bytes wins, ties going to the lowest flat index. When the
    /// arrival's own egress queue is itself evictable, a victim must hold
    /// *strictly more* bytes than it — a queue cannot churn its peers to
    /// grow past them.
    pub fn preempting(mut self, protected: &[Priority]) -> Self {
        self.protected = Some(protected.iter().fold(0, |m, p| m | 1 << p.index()));
        self
    }
}

impl BufferPolicy for DtPolicy {
    fn pfc_threshold(&mut self, mmu: &MmuState, _q: QueueIndex, _now: SimTime) -> Bytes {
        mmu.shared_remaining().scale(self.alpha)
    }

    fn plan_eviction(&self, mmu: &MmuState, q_out: QueueIndex) -> Option<QueueIndex> {
        let mask = self.protected?;
        let protected = |p: Priority| mask & (1 << p.index()) != 0;
        // The bar a victim must clear: non-empty, and deeper than the
        // arrival's own queue when that queue could itself be evicted.
        let own = if protected(q_out.priority) {
            Bytes::ZERO
        } else {
            mmu.egress_bytes(q_out)
        };
        let mut best: Option<(Bytes, QueueIndex)> = None;
        for port in 0..mmu.port_count() {
            for priority in Priority::all().filter(|&p| !protected(p)) {
                let q = QueueIndex::new(PortId::new(port as u16), priority);
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
    use crate::AbmPolicy;
    use dcn_sim::BitRate;

    fn mmu() -> MmuState {
        MmuState::new(&SwitchConfig::default(), vec![BitRate::from_gbps(25); 4])
    }

    fn q(port: u16, prio: u8) -> QueueIndex {
        QueueIndex::new(PortId::new(port), Priority::new(prio))
    }

    #[test]
    fn dt_threshold_tracks_remaining() {
        let mut m = mmu();
        let mut dt = DtPolicy::new(0.125);
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
        let mut dt = DtPolicy::new(0.5);
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

    /// Charges `bytes` into egress queue `eq` (ingress chosen disjointly).
    fn fill_egress(m: &mut MmuState, eq: QueueIndex, bytes: u64) {
        let c = m.plan_charge(q(0, eq.priority.as_u8()), Bytes::new(bytes), Pool::Shared);
        m.charge(q(0, eq.priority.as_u8()), eq, c);
    }

    fn occamy() -> DtPolicy {
        DtPolicy::new(0.5).preempting(&[])
    }

    #[test]
    fn occamy_picks_deepest_unprotected_queue() {
        let mut m = mmu();
        let occ = DtPolicy::new(0.5).preempting(&[Priority::new(3)]);
        fill_egress(&mut m, q(1, 1), 5_000);
        fill_egress(&mut m, q(2, 1), 9_000);
        fill_egress(&mut m, q(2, 3), 50_000); // deepest, but protected
        let victim = occ.plan_eviction(&m, q(3, 3));
        assert_eq!(victim, Some(q(2, 1)), "deepest lossy queue wins");
    }

    #[test]
    fn occamy_returns_none_on_empty_switch() {
        assert_eq!(occamy().plan_eviction(&mmu(), q(1, 1)), None);
    }

    #[test]
    fn occamy_requires_victim_deeper_than_own_evictable_queue() {
        let mut m = mmu();
        fill_egress(&mut m, q(1, 1), 9_000);
        fill_egress(&mut m, q(2, 1), 5_000);
        // Arrival bound for the deepest queue itself: nothing is deeper.
        assert_eq!(occamy().plan_eviction(&m, q(1, 1)), None);
        // Arrival bound for the shallower queue: the deep one is fair game.
        assert_eq!(occamy().plan_eviction(&m, q(2, 1)), Some(q(1, 1)));
    }

    #[test]
    fn occamy_tie_breaks_to_lowest_flat_index() {
        let mut m = mmu();
        fill_egress(&mut m, q(2, 1), 5_000);
        fill_egress(&mut m, q(1, 1), 5_000);
        assert_eq!(occamy().plan_eviction(&m, q(3, 3)), Some(q(1, 1)));
    }

    #[test]
    fn non_preemptive_policies_never_plan_evictions() {
        let mut m = mmu();
        fill_egress(&mut m, q(1, 1), 9_000);
        assert_eq!(DtPolicy::new(0.125).plan_eviction(&m, q(2, 1)), None);
        assert_eq!(AbmPolicy::new(0.5).plan_eviction(&m, q(2, 1)), None);
        assert_eq!(occamy().plan_eviction(&m, q(2, 1)), Some(q(1, 1)));
    }
}
