//! The Memory Management Unit: virtual counter pools.
//!
//! Packets are physically stored once (in the egress queues); the MMU
//! tracks them in *two* sets of counters, exactly as the paper describes
//! (§II-A): an ingress counter per (ingress port, priority) used for PFC
//! thresholds, and an egress counter per (egress port, priority) used for
//! output-queue thresholds and ECN. Both are charged at admission and
//! discharged at departure.
//!
//! Ingress bytes are charged to one of two pools: the *shared* pool
//! (bounded by the policy's PFC threshold), or — for lossless traffic
//! that arrives after/above the pause threshold — the queue's
//! *headroom*.

use dcn_net::{PortId, Priority, MAX_FRAME};
use dcn_sim::{BitRate, Bytes, SimTime};

use crate::config::SwitchConfig;

/// Identifies one (port, priority) queue within a switch; used for both
/// ingress and egress counter indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueueIndex {
    /// The port.
    pub port: PortId,
    /// The priority.
    pub priority: Priority,
}

impl QueueIndex {
    /// Creates a queue index.
    pub const fn new(port: PortId, priority: Priority) -> Self {
        QueueIndex { port, priority }
    }

    /// Flat index into per-queue arrays.
    pub fn flat(self) -> usize {
        self.port.index() * Priority::COUNT + self.priority.index()
    }
}

/// Which pool a packet was charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pool {
    /// The shared service pool.
    Shared,
    /// The per-queue headroom pool (lossless overflow after pause).
    Headroom,
}

/// How one admitted packet's bytes were charged; stored with the packet
/// and replayed in reverse at departure.
///
/// Four bytes: a charge never exceeds one frame ([`MAX_FRAME`]),
/// and it rides in every queue entry and in-flight record. Built by
/// [`MmuState::plan_charge`]; read through the [`Bytes`] accessors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Charge {
    bytes: u16,
    /// Pool the bytes went to.
    pub pool: Pool,
}

impl Charge {
    /// The empty charge: what a host NIC, which has no MMU, files with
    /// its queued packets.
    pub const NONE: Charge = Charge {
        bytes: 0,
        pool: Pool::Shared,
    };

    /// Bytes charged to `pool`.
    pub fn total(&self) -> Bytes {
        Bytes::from(self.bytes)
    }
}

/// The MMU counter state of one switch.
///
/// All mutation goes through [`MmuState::charge`] / [`MmuState::discharge`]
/// so the aggregate counters can never drift from the per-queue ones
/// (property-tested).
#[derive(Debug)]
pub struct MmuState {
    n_ports: usize,
    total_buffer: Bytes,
    /// Per-port headroom cap (each of the port's queues may hold this
    /// much paused-overflow traffic).
    headroom_cap: Vec<Bytes>,
    mtu: Bytes,
    link_rate: Vec<BitRate>,

    // Ingress side, indexed by QueueIndex::flat.
    in_shared: Vec<Bytes>,
    in_headroom: Vec<Bytes>,

    // Egress side, indexed by QueueIndex::flat.
    out_bytes: Vec<Bytes>,
    /// Number of non-empty egress priority queues per port, for the
    /// round-robin drain-share estimate.
    out_active: Vec<usize>,
    /// Egress (port, priority) paused by a downstream XOFF.
    out_paused: Vec<bool>,

    shared_used: Bytes,
    headroom_used: Bytes,
}

impl MmuState {
    /// Creates MMU state for a switch with the given per-port link rates.
    ///
    /// # Panics
    ///
    /// Panics if `link_rate` is empty.
    pub fn new(cfg: &SwitchConfig, link_rate: Vec<BitRate>) -> MmuState {
        assert!(!link_rate.is_empty(), "switch needs at least one port");
        let n_ports = link_rate.len();
        let nq = n_ports * Priority::COUNT;
        MmuState {
            n_ports,
            total_buffer: cfg.total_buffer,
            headroom_cap: vec![cfg.headroom_per_queue; n_ports],
            mtu: cfg.mtu,
            link_rate,
            in_shared: vec![Bytes::ZERO; nq],
            in_headroom: vec![Bytes::ZERO; nq],
            out_bytes: vec![Bytes::ZERO; nq],
            out_active: vec![0; n_ports],
            out_paused: vec![false; nq],
            shared_used: Bytes::ZERO,
            headroom_used: Bytes::ZERO,
        }
    }

    // ---- capacity and aggregate views -------------------------------

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.n_ports
    }

    /// The shared pool capacity `B`.
    pub fn shared_capacity(&self) -> Bytes {
        self.total_buffer
    }

    /// Total shared-pool usage `Q(t)`.
    pub fn shared_used(&self) -> Bytes {
        self.shared_used
    }

    /// Unallocated shared buffer `B − Q(t)`.
    pub fn shared_remaining(&self) -> Bytes {
        self.total_buffer.saturating_sub(self.shared_used)
    }

    /// Total bytes stored in the switch (shared + headroom).
    pub fn total_stored(&self) -> Bytes {
        self.shared_used + self.headroom_used
    }

    /// Total headroom usage.
    pub fn headroom_used(&self) -> Bytes {
        self.headroom_used
    }

    /// Link rate of a port.
    ///
    /// # Panics
    ///
    /// Panics if the port is out of range.
    pub fn link_rate(&self, port: PortId) -> BitRate {
        self.link_rate[port.index()]
    }

    /// Configured MTU (for congestion heuristics).
    pub fn mtu(&self) -> Bytes {
        self.mtu
    }

    // ---- per-queue views --------------------------------------------

    /// Shared-pool bytes of an ingress queue — the quantity PFC
    /// thresholds compare against.
    pub fn ingress_shared(&self, q: QueueIndex) -> Bytes {
        self.in_shared[q.flat()]
    }

    /// Total ingress bytes of a queue (shared + headroom).
    pub fn ingress_total(&self, q: QueueIndex) -> Bytes {
        let i = q.flat();
        self.in_shared[i] + self.in_headroom[i]
    }

    /// Headroom bytes of an ingress queue.
    pub fn ingress_headroom(&self, q: QueueIndex) -> Bytes {
        self.in_headroom[q.flat()]
    }

    /// Headroom still free for an ingress queue.
    pub fn headroom_available(&self, q: QueueIndex) -> Bytes {
        self.headroom_cap[q.port.index()].saturating_sub(self.in_headroom[q.flat()])
    }

    /// Overrides the headroom cap of one port's queues. Real deployments
    /// size headroom per port from the attached link's bandwidth-delay
    /// product (in-flight bytes between XOFF emission and it taking
    /// effect upstream); the fabric layer does this automatically.
    ///
    /// # Panics
    ///
    /// Panics if the port is out of range.
    pub fn set_headroom_cap(&mut self, port: PortId, cap: Bytes) {
        self.headroom_cap[port.index()] = cap;
    }

    /// Egress queue bytes (including any packet being serialized).
    pub fn egress_bytes(&self, q: QueueIndex) -> Bytes {
        self.out_bytes[q.flat()]
    }

    /// Whether a downstream XOFF currently pauses this egress queue.
    pub fn egress_paused(&self, q: QueueIndex) -> bool {
        self.out_paused[q.flat()]
    }

    /// Estimated drain rate of an egress queue under round-robin, ignoring
    /// any downstream pause: the port rate divided by the number of
    /// non-empty priority queues (at least 1). L2BM's sojourn estimator
    /// uses it so that PFC back-pressure is not mistaken for congestion
    /// (the paper's "mitigate PFC diffusion" rule).
    pub fn egress_drain_rate_ignoring_pause(&self, q: QueueIndex) -> BitRate {
        let active = self.out_active[q.port.index()].max(1);
        self.link_rate[q.port.index()] / active as u64
    }

    // ---- mutation -----------------------------------------------------

    /// The charge of `size` bytes into `pool`, whichever ingress queue
    /// they enter. Does not mutate.
    ///
    /// # Panics
    ///
    /// Panics if `size` exceeds [`MAX_FRAME`].
    pub fn plan_charge(&self, _q: QueueIndex, size: Bytes, pool: Pool) -> Charge {
        Charge {
            bytes: u16::try_from(size).expect("charge exceeds one frame"),
            pool,
        }
    }

    /// Applies a charge for a packet entering via ingress `q_in` and
    /// queued at egress `q_out`.
    pub fn charge(&mut self, q_in: QueueIndex, q_out: QueueIndex, c: Charge) {
        let i = q_in.flat();
        match c.pool {
            Pool::Shared => {
                self.in_shared[i] += c.total();
                self.shared_used += c.total();
            }
            Pool::Headroom => {
                self.in_headroom[i] += c.total();
                self.headroom_used += c.total();
            }
        }
        let o = q_out.flat();
        if self.out_bytes[o] == Bytes::ZERO && c.total() > Bytes::ZERO {
            self.out_active[q_out.port.index()] += 1;
        }
        self.out_bytes[o] += c.total();
    }

    /// Reverses a charge when the packet departs.
    pub fn discharge(&mut self, _now: SimTime, q_in: QueueIndex, q_out: QueueIndex, c: Charge) {
        let i = q_in.flat();
        match c.pool {
            Pool::Shared => {
                self.in_shared[i] -= c.total();
                self.shared_used -= c.total();
            }
            Pool::Headroom => {
                self.in_headroom[i] -= c.total();
                self.headroom_used -= c.total();
            }
        }
        let o = q_out.flat();
        self.out_bytes[o] -= c.total();
        if self.out_bytes[o] == Bytes::ZERO && c.total() > Bytes::ZERO {
            self.out_active[q_out.port.index()] -= 1;
        }
    }

    /// Charges `size` bytes — any amount — as a run of charges of at
    /// most one frame each, returned in charge order for a later
    /// [`MmuState::discharge`]. For tests and benchmarks that fill a
    /// switch to a level; admission charges one packet at a time.
    pub fn charge_bulk(
        &mut self,
        q_in: QueueIndex,
        q_out: QueueIndex,
        size: Bytes,
        pool: Pool,
    ) -> Vec<Charge> {
        let mut charges = Vec::new();
        let mut left = size;
        while left > Bytes::ZERO {
            let c = self.plan_charge(q_in, left.min(MAX_FRAME), pool);
            self.charge(q_in, q_out, c);
            left -= c.total();
            charges.push(c);
        }
        charges
    }

    /// Sets the downstream pause state of an egress queue. Returns
    /// whether the state changed.
    pub fn set_egress_paused(&mut self, q: QueueIndex, paused: bool) -> bool {
        let slot = &mut self.out_paused[q.flat()];
        if *slot == paused {
            false
        } else {
            *slot = paused;
            true
        }
    }

    /// Debug invariant: aggregate counters equal the sums of per-queue
    /// counters, and ingress totals equal egress totals.
    pub fn check_conservation(&self) -> Result<(), String> {
        let sum_sh: Bytes = self.in_shared.iter().copied().sum();
        let sum_hr: Bytes = self.in_headroom.iter().copied().sum();
        let sum_out: Bytes = self.out_bytes.iter().copied().sum();
        if sum_sh != self.shared_used {
            return Err(format!("shared {} != sum {}", self.shared_used, sum_sh));
        }
        if sum_hr != self.headroom_used {
            return Err(format!("headroom {} != sum {}", self.headroom_used, sum_hr));
        }
        let total_in = sum_sh + sum_hr;
        if total_in != sum_out {
            return Err(format!(
                "ingress total {total_in} != egress total {sum_out}"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mmu() -> MmuState {
        let cfg = SwitchConfig {
            headroom_per_queue: Bytes::new(10_000),
            ..SwitchConfig::default()
        };
        MmuState::new(&cfg, vec![BitRate::from_gbps(25); 4])
    }

    fn q(port: u16, prio: u8) -> QueueIndex {
        QueueIndex::new(PortId::new(port), Priority::new(prio))
    }

    #[test]
    fn charge_discharge_round_trip() {
        let mut m = mmu();
        let qi = q(0, 3);
        let qo = q(2, 3);
        let c = m.plan_charge(qi, Bytes::new(5_000), Pool::Shared);
        m.charge(qi, qo, c);
        assert_eq!(m.ingress_total(qi), Bytes::new(5_000));
        assert_eq!(m.ingress_shared(qi), Bytes::new(5_000));
        assert_eq!(m.egress_bytes(qo), Bytes::new(5_000));
        assert_eq!(m.shared_used(), Bytes::new(5_000));
        m.check_conservation().unwrap();
        m.discharge(SimTime::from_micros(10), qi, qo, c);
        assert_eq!(m.ingress_total(qi), Bytes::ZERO);
        assert_eq!(m.total_stored(), Bytes::ZERO);
        m.check_conservation().unwrap();
    }

    #[test]
    fn headroom_pool_is_separate() {
        let mut m = mmu();
        let qi = q(1, 3);
        let qo = q(2, 3);
        let c = m.plan_charge(qi, Bytes::new(6_000), Pool::Headroom);
        m.charge(qi, qo, c);
        assert_eq!(m.ingress_headroom(qi), Bytes::new(6_000));
        assert_eq!(m.shared_used(), Bytes::ZERO);
        assert_eq!(m.headroom_available(qi), Bytes::new(4_000));
        m.check_conservation().unwrap();
    }

    #[test]
    fn egress_active_counts_drive_drain_estimate() {
        let mut m = mmu();
        let qo3 = q(3, 3);
        let qo1 = q(3, 1);
        assert_eq!(
            m.egress_drain_rate_ignoring_pause(qo3),
            BitRate::from_gbps(25)
        );
        let c = m.plan_charge(q(0, 3), Bytes::new(3_000), Pool::Shared);
        m.charge(q(0, 3), qo3, c);
        let c2 = m.plan_charge(q(1, 1), Bytes::new(3_000), Pool::Shared);
        m.charge(q(1, 1), qo1, c2);
        // Two active priorities share the port under round-robin; a
        // downstream pause does not change the estimate.
        assert!(m.set_egress_paused(qo3, true));
        assert!(!m.set_egress_paused(qo3, true), "no change");
        assert_eq!(
            m.egress_drain_rate_ignoring_pause(qo3).as_bps(),
            BitRate::from_gbps(25).as_bps() / 2
        );
    }

    #[test]
    fn charge_is_four_bytes() {
        assert_eq!(std::mem::size_of::<Charge>(), 4);
        assert_eq!(Charge::NONE.total(), Bytes::ZERO);
    }

    /// The charge accounts for exactly a packet's bytes — up to and
    /// including the largest frame.
    #[test]
    fn planned_charge_totals_the_packet_size() {
        let mut rng = dcn_sim::SimRng::seed_from_u64(0xC4A6);
        for case in 0..64 {
            let mut m = mmu();
            let (qi, qo) = (q(0, 3), q(1, 3));
            let prefill = m.plan_charge(qi, Bytes::new(rng.below(2_500)), Pool::Shared);
            m.charge(qi, qo, prefill);
            for size in [0, 1, 1_048, 1 + rng.below(65_535), 65_535] {
                let size = Bytes::new(size);
                for pool in [Pool::Shared, Pool::Headroom] {
                    let c = m.plan_charge(qi, size, pool);
                    assert_eq!(c.total(), size, "case {case}: {size} into {pool:?}");
                    assert_eq!(c.pool, pool);
                    m.charge(qi, qo, c);
                    m.check_conservation().unwrap();
                    m.discharge(SimTime::ZERO, qi, qo, c);
                }
            }
            assert_eq!(m.ingress_total(qi), prefill.total());
        }
    }

    #[test]
    #[should_panic(expected = "charge exceeds one frame")]
    fn charge_above_one_frame_is_refused_not_truncated() {
        let _ = mmu().plan_charge(q(0, 3), Bytes::new(70_000), Pool::Shared);
    }

    #[test]
    fn bulk_charge_fills_to_any_level_frame_by_frame() {
        let mut m = mmu();
        let charges = m.charge_bulk(q(0, 3), q(1, 3), Bytes::from_mb(1), Pool::Shared);
        assert_eq!(charges.len(), 16, "15 whole frames and a remainder");
        assert_eq!(m.ingress_total(q(0, 3)), Bytes::from_mb(1));
        m.check_conservation().unwrap();
        for c in charges {
            m.discharge(SimTime::ZERO, q(0, 3), q(1, 3), c);
        }
        assert_eq!(m.total_stored(), Bytes::ZERO);
    }
}
