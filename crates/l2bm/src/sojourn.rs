//! The sojourn-time recorder (paper Algorithm 1).
//!
//! For each ingress queue the module maintains the estimated *total
//! remaining residence time* of its buffered packets (`t_total`), the
//! packet count (`N`), and the last-update instant (`t_prev`). On
//! enqueue, a packet's residence estimate is the destination output
//! queue's depth divided by its drain rate (`Q_out / μ`); on every update
//! the elapsed interval is subtracted once per *actively draining*
//! packet. The average sojourn time is `τ = t_total / N` (paper Eq. 2).
//!
//! **PFC-diffusion mitigation** (paper §III-D): time during which a
//! packet's destination egress queue is paused by a downstream XOFF does
//! *not* count — those packets are excluded from the decay term, and the
//! enqueue estimate uses the pause-free drain rate. Without this rule,
//! back-pressure from elsewhere would masquerade as local congestion and
//! make L2BM spread the pause further upstream. The caller names each
//! packet's pause state, and at a pause edge the per-port counts of the
//! packets behind that egress.
//!
//! The paper's Algorithm 1 as printed updates `t_total` on dequeue with
//! `t_total − (t_now − t_prev)`; we implement the self-consistent version
//! of the same bookkeeping (settle the decay term first, then remove the
//! departing packet, whose remaining estimate has already decayed to
//! ≈ 0), and clamp `t_total ≥ 0` against estimator error.
//!
//! # Layout and hot-path complexity
//!
//! One 32-byte record per ingress queue *in use*, allocated on its first
//! packet and found through a flat-index → slot map. Totals are integer
//! nanoseconds, so every record is exact; `τ` and `C` are ns too.
//! `pfc_threshold` runs per packet, so `C = Σ τ` is not rescanned: each
//! record's unclamped contribution is linear in time (value `t_total/N`,
//! slope `active/N`), and the module advances `Σ τ` and `Σ active/N`
//! lazily. Clamping at zero uses an *indexed* min-heap of zero crossings
//! (`t_prev + ⌈t_total/active⌉`, ties in flat queue order): a counted,
//! draining record owns one entry, re-keyed in place on every touch, so
//! every pop is a real crossing and [`SojournModule::sum_active_tau`] is
//! O(1) when nothing crossed zero. Reading `C` advances the aggregate,
//! so it takes `&mut self`, as the threshold read that calls it does.

use dcn_net::Priority;
use dcn_sim::{SimDuration, SimTime};
use dcn_switch::{MmuState, QueueIndex};

/// `Record::pos` of a record with no expiry-heap entry, and the slot of
/// a queue that has no record.
const UNFILED: u32 = u32::MAX;

/// One ingress queue's sojourn record.
#[derive(Debug, Clone, Copy, Default)]
struct Record {
    /// Σ estimated remaining residence time of buffered packets, ns.
    total: u64,
    /// Last settle instant.
    t_prev: SimTime,
    /// Buffered packet count `N`.
    n: u32,
    /// Packets sitting behind paused egress queues (excluded from the
    /// decay term).
    paused_n: u32,
    /// This record's position in the expiry heap, or [`UNFILED`].
    pos: u32,
    /// Whether this record is included in the aggregate.
    counted: bool,
}

impl Record {
    /// Packets whose residence estimate is decaying.
    fn active(&self) -> u64 {
        u64::from(self.n.saturating_sub(self.paused_n))
    }

    /// Decay since `t_prev` at `t`, ns.
    fn decayed(&self, t: SimTime) -> u64 {
        let dt = t.saturating_since(self.t_prev).as_nanos();
        self.active().saturating_mul(dt)
    }

    /// `τ` at `t`, ns, with the decay since the last touch applied
    /// virtually. Zero for an empty queue, whose total is zero.
    fn tau(&self, t: SimTime) -> f64 {
        self.total.saturating_sub(self.decayed(t)) as f64 / f64::from(self.n.max(1))
    }

    /// The record's *unclamped* contribution to `Σ τ` at `t`:
    /// `(value, decay slope per ns)`. Only meaningful while the record is
    /// counted (i.e. before its zero crossing).
    fn linear_contribution(&self, t: SimTime) -> (f64, f64) {
        let n = f64::from(self.n);
        let value = self.total as f64 - self.decayed(t) as f64;
        (value / n, self.active() as f64 / n)
    }
}

/// One expiry-heap entry: `(zero-crossing ns, flat queue index, record
/// slot)`. Flat indices are distinct, so the order is total and the slot
/// never decides it.
type Expiry = (u64, u32, u32);

/// Every record of one switch and the lazily-advanced `C = Σ τ`.
#[derive(Debug, Default)]
struct Table {
    records: Vec<Record>,
    /// `Σ τ_i` over counted records, ns, valid at `t`.
    sum: f64,
    /// `Σ active_i/n_i` over counted records — d(sum)/dt.
    decay: f64,
    /// Instant at which `sum` is valid.
    t: SimTime,
    /// Number of counted records (to snap float drift to zero).
    live: usize,
    /// Binary min-heap of zero crossings: one entry per counted record
    /// with `active > 0`, and `records[e.2].pos` is entry `e`'s position.
    expiry: Vec<Expiry>,
}

impl Table {
    /// Advances `sum` to `now`, retiring every record whose unclamped
    /// contribution crossed zero on the way.
    fn advance(&mut self, now: SimTime) {
        if now <= self.t {
            return;
        }
        while let Some(&(tz_ns, _, slot)) = self.expiry.first() {
            if tz_ns > now.as_nanos() {
                break;
            }
            let tz = SimTime::from_nanos(tz_ns);
            self.sum -= self.decay * tz.saturating_since(self.t).as_nanos() as f64;
            self.t = self.t.max(tz);
            self.unfile(0);
            self.uncount(slot as usize);
        }
        self.sum -= self.decay * now.saturating_since(self.t).as_nanos() as f64;
        self.t = now;
    }

    /// Removes a counted record's contribution at the current `t`.
    fn uncount(&mut self, slot: usize) {
        let rec = &mut self.records[slot];
        if !rec.counted {
            return;
        }
        rec.counted = false;
        let (value, slope) = rec.linear_contribution(self.t);
        self.sum -= value;
        self.decay -= slope;
        self.live -= 1;
        if self.live == 0 {
            // The true sum is exactly zero: snap away float drift.
            self.sum = 0.0;
            self.decay = 0.0;
        }
    }

    /// Settles record `slot` (flat queue index `flat`) at `now`, applies
    /// `change`, and re-enters it into the aggregate, re-keying its
    /// expiry entry in place.
    fn touch(&mut self, slot: usize, flat: usize, now: SimTime, change: impl FnOnce(&mut Record)) {
        self.advance(now);
        self.uncount(slot);
        let rec = &mut self.records[slot];
        rec.total = rec.total.saturating_sub(rec.decayed(now));
        rec.t_prev = now;
        change(rec);
        let (n, active) = (f64::from(rec.n), rec.active());
        // Empty or fully-decayed records contribute exactly zero until
        // the next enqueue; keep them out of the aggregate.
        let mut key = None;
        if rec.n > 0 && rec.total > 0 {
            rec.counted = true;
            self.live += 1;
            self.sum += rec.total as f64 / n;
            if active > 0 {
                self.decay += active as f64 / n;
                let tz_ns = now.as_nanos().saturating_add(rec.total.div_ceil(active));
                key = Some((tz_ns, flat as u32, slot as u32));
            }
        }
        match (self.records[slot].pos as usize, key) {
            (p, None) if p != UNFILED as usize => self.unfile(p),
            (_, None) => {}
            (p, Some(e)) if p != UNFILED as usize => self.resift(p, e),
            (_, Some(e)) => {
                self.expiry.push(e);
                self.sift_up(self.expiry.len() - 1, e);
            }
        }
    }

    /// Removes the expiry entry at position `p`.
    fn unfile(&mut self, p: usize) {
        self.records[self.expiry[p].2 as usize].pos = UNFILED;
        let last = self.expiry.pop().expect("a filed record has an entry");
        if p < self.expiry.len() {
            self.resift(p, last);
        }
    }

    /// Puts `e` in the hole at `p`; it may belong above or below it.
    fn resift(&mut self, p: usize, e: Expiry) {
        if p > 0 && e < self.expiry[(p - 1) / 2] {
            self.sift_up(p, e);
        } else {
            self.sift_down(p, e);
        }
    }

    /// Settles `e` at or above the hole at `p`.
    fn sift_up(&mut self, mut p: usize, e: Expiry) {
        while p > 0 {
            let parent = (p - 1) / 2;
            if self.expiry[parent] < e {
                break;
            }
            self.place(p, self.expiry[parent]);
            p = parent;
        }
        self.place(p, e);
    }

    /// Settles `e` at or below the hole at `p`.
    fn sift_down(&mut self, mut p: usize, e: Expiry) {
        while 2 * p + 1 < self.expiry.len() {
            let (mut child, right) = (2 * p + 1, 2 * p + 2);
            if right < self.expiry.len() && self.expiry[right] < self.expiry[child] {
                child = right;
            }
            if e < self.expiry[child] {
                break;
            }
            self.place(p, self.expiry[child]);
            p = child;
        }
        self.place(p, e);
    }

    fn place(&mut self, p: usize, e: Expiry) {
        self.expiry[p] = e;
        self.records[e.2 as usize].pos = p as u32;
    }
}

/// The residence-time recorder for every ingress queue of one switch.
///
/// Drive it with [`SojournModule::on_enqueue`] /
/// [`SojournModule::on_dequeue`] / [`SojournModule::on_pause_changed`]
/// and read [`SojournModule::sum_active_tau`] (the normalization
/// constant `C`).
///
/// `now` must be non-decreasing across calls, as is naturally the case
/// inside a discrete-event simulation.
#[derive(Debug, Default)]
pub struct SojournModule {
    /// Flat ingress-queue index → record slot, or [`UNFILED`]; sized from
    /// the MMU on the first packet.
    slots: Vec<u32>,
    /// The records and the `Σ τ` aggregate.
    table: Table,
}

impl SojournModule {
    /// An empty module; it allocates as its queues receive packets.
    pub fn new() -> Self {
        SojournModule::default()
    }

    /// The record slot of flat ingress queue `flat`, if it has had a packet.
    fn slot(&self, flat: usize) -> Option<usize> {
        let s = *self.slots.get(flat)?;
        (s != UNFILED).then_some(s as usize)
    }

    /// Records a packet entering via `q_in`, queued at `q_out`; `frozen`
    /// says whether `q_out` is paused (and the pause counts). Call after
    /// the MMU charge, so `mmu.egress_bytes(q_out)` includes the packet.
    pub fn on_enqueue(
        &mut self,
        mmu: &MmuState,
        now: SimTime,
        q_in: QueueIndex,
        q_out: QueueIndex,
        frozen: bool,
    ) {
        // Estimated residence: output queue depth over its pause-free
        // drain share (pause time must not count — §III-D).
        let mu = mmu.egress_drain_rate_ignoring_pause(q_out);
        let wait = mu.tx_time(mmu.egress_bytes(q_out));
        let wait_ns = (wait != SimDuration::MAX).then(|| wait.as_nanos());
        if self.slots.is_empty() {
            self.slots = vec![UNFILED; mmu.port_count() * Priority::COUNT];
        }
        let table = &mut self.table;
        let flat = q_in.flat();
        let slot = &mut self.slots[flat];
        if *slot == UNFILED {
            *slot = u32::try_from(table.records.len()).expect("under 2^32 queues");
            table.records.push(Record {
                pos: UNFILED,
                ..Record::default()
            });
        }
        table.touch(*slot as usize, flat, now, |rec| {
            rec.total += wait_ns.unwrap_or(0);
            rec.n += 1;
            rec.paused_n += u32::from(frozen);
        });
    }

    /// Records a packet leaving ingress queue `q_in`; `frozen` says
    /// whether its egress queue is paused (and the pause counts). A
    /// dequeue with no matching enqueue is ignored.
    pub fn on_dequeue(&mut self, now: SimTime, q_in: QueueIndex, frozen: bool) {
        let held = |&s: &usize| self.table.records[s].n > 0;
        let Some(slot) = self.slot(q_in.flat()).filter(held) else {
            return;
        };
        self.table.touch(slot, q_in.flat(), now, |rec| {
            rec.n -= 1;
            rec.paused_n = rec.paused_n.saturating_sub(u32::from(frozen));
            if rec.n == 0 {
                rec.total = 0;
                rec.paused_n = 0;
            }
        });
    }

    /// Records a downstream pause (`paused`) or resume of egress queue
    /// `q_out`, behind which `queued_from[p]` packets of ingress port `p`
    /// wait: settles each of those ingress queues under the *old* state,
    /// in ascending port order, then freezes/unfreezes its packets.
    pub fn on_pause_changed(
        &mut self,
        now: SimTime,
        q_out: QueueIndex,
        paused: bool,
        queued_from: &[u32],
    ) {
        for (port, &count) in queued_from.iter().enumerate() {
            let flat = port * Priority::COUNT + q_out.priority.index();
            let Some(slot) = self.slot(flat).filter(|_| count > 0) else {
                continue;
            };
            self.table.touch(slot, flat, now, |rec| {
                if paused {
                    rec.paused_n += count;
                } else {
                    rec.paused_n = rec.paused_n.saturating_sub(count);
                }
            });
        }
    }

    /// The average sojourn time `τ` of ingress queue `q` at `now`
    /// (Eq. 2), in ns.
    pub(crate) fn tau_ns(&self, q: QueueIndex, now: SimTime) -> f64 {
        self.slot(q.flat())
            .map_or(0.0, |s| self.table.records[s].tau(now))
    }

    /// `C = Σ τ` at `now`, in ns; see [`SojournModule::sum_active_tau`].
    pub(crate) fn sum_tau_ns(&mut self, now: SimTime) -> f64 {
        self.table.advance(now);
        self.table.sum.max(0.0)
    }

    /// `Σ τ` over all queues currently holding packets — the paper's
    /// normalization constant `C` — in seconds. O(1) amortized: reads the
    /// incremental aggregate instead of scanning every queue.
    pub fn sum_active_tau(&mut self, now: SimTime) -> f64 {
        self.sum_tau_ns(now) / 1e9
    }

    /// Reference implementation of [`SojournModule::sum_active_tau`] by
    /// full scan. Kept for differential testing of the incremental
    /// aggregate — not for the admission path.
    pub fn sum_active_tau_naive(&self, now: SimTime) -> f64 {
        let records = &self.table.records;
        records.iter().map(|rec| rec.tau(now)).sum::<f64>() / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_net::{PortId, Priority};
    use dcn_sim::{BitRate, Bytes};
    use dcn_switch::{Pool, SwitchConfig};

    fn mmu_of(ports: usize) -> MmuState {
        MmuState::new(
            &SwitchConfig::default(),
            vec![BitRate::from_gbps(25); ports],
        )
    }

    fn mmu() -> MmuState {
        mmu_of(4)
    }

    fn q(port: u16, prio: u8) -> QueueIndex {
        QueueIndex::new(PortId::new(port), Priority::new(prio))
    }

    /// Charges the MMU and informs the module, like the policy does.
    fn enqueue(
        m: &mut MmuState,
        s: &mut SojournModule,
        now: SimTime,
        qi: QueueIndex,
        qo: QueueIndex,
        bytes: u64,
    ) {
        m.charge_bulk(qi, qo, Bytes::new(bytes), Pool::Shared);
        s.on_enqueue(m, now, qi, qo, m.egress_paused(qo));
    }

    fn dequeue(
        m: &mut MmuState,
        s: &mut SojournModule,
        now: SimTime,
        qi: QueueIndex,
        qo: QueueIndex,
        bytes: u64,
    ) {
        // The default config reserves nothing per queue, so planning the
        // same bytes again names the charges `enqueue` made.
        let mut left = Bytes::new(bytes);
        while left > Bytes::ZERO {
            let c = m.plan_charge(qi, left.min(dcn_net::MAX_FRAME), Pool::Shared);
            m.discharge(now, qi, qo, c);
            left -= c.total();
        }
        s.on_dequeue(now, qi, m.egress_paused(qo));
    }

    /// A pause edge of `qo`, with the per-ingress-port counts the switch
    /// would pass: the packets of `queued` bound for `qo`.
    fn set_paused(
        m: &mut MmuState,
        s: &mut SojournModule,
        now: SimTime,
        qo: QueueIndex,
        paused: bool,
        queued: &[(QueueIndex, QueueIndex, u64)],
    ) {
        if m.set_egress_paused(qo, paused) {
            let mut from = vec![0; m.port_count()];
            for &(qi, _, _) in queued.iter().filter(|e| e.1 == qo) {
                from[qi.port.index()] += 1;
            }
            s.on_pause_changed(now, qo, paused, &from);
        }
    }

    fn packet_count(s: &SojournModule, q: QueueIndex) -> u32 {
        s.slot(q.flat()).map_or(0, |i| s.table.records[i].n)
    }

    #[test]
    fn empty_queue_has_zero_tau() {
        let mut s = SojournModule::new();
        assert_eq!(s.tau_ns(q(0, 3), SimTime::from_micros(5)), 0.0);
        assert_eq!(s.sum_active_tau(SimTime::ZERO), 0.0);
    }

    #[test]
    fn single_packet_estimate_matches_queue_over_rate() {
        let mut m = mmu();
        let mut s = SojournModule::new();
        // 12_500 bytes at 25 Gbps (sole active priority) = 4 µs, exactly.
        enqueue(&mut m, &mut s, SimTime::ZERO, q(0, 3), q(1, 3), 12_500);
        assert_eq!(s.tau_ns(q(0, 3), SimTime::ZERO), 4_000.0);
        assert_eq!(s.sum_active_tau(SimTime::ZERO), 4e-6);
    }

    #[test]
    fn tau_decays_with_time() {
        let mut m = mmu();
        let mut s = SojournModule::new();
        enqueue(&mut m, &mut s, SimTime::ZERO, q(0, 3), q(1, 3), 12_500);
        assert_eq!(s.tau_ns(q(0, 3), SimTime::from_micros(1)), 3_000.0);
        // Fully decayed after the estimated 4 µs.
        assert_eq!(s.tau_ns(q(0, 3), SimTime::from_micros(10)), 0.0);
    }

    #[test]
    fn congested_destination_raises_tau() {
        let mut m = mmu();
        let mut s = SojournModule::new();
        // Pre-load 125 KB on egress (1,3) from another ingress.
        enqueue(&mut m, &mut s, SimTime::ZERO, q(2, 3), q(1, 3), 125_000);
        // Now a packet from ingress (0,3) joins the 40 µs backlog...
        enqueue(&mut m, &mut s, SimTime::ZERO, q(0, 3), q(1, 3), 1_048);
        // ...while one to an empty egress (3,3) would wait almost nothing.
        enqueue(&mut m, &mut s, SimTime::ZERO, q(0, 1), q(3, 1), 1_048);
        let hot = s.tau_ns(q(0, 3), SimTime::ZERO);
        let cold = s.tau_ns(q(0, 1), SimTime::ZERO);
        assert!(hot > 10.0 * cold, "hot {hot} vs cold {cold}");
    }

    #[test]
    fn dequeue_empties_record() {
        let mut m = mmu();
        let mut s = SojournModule::new();
        enqueue(&mut m, &mut s, SimTime::ZERO, q(0, 3), q(1, 3), 1_048);
        assert_eq!(packet_count(&s, q(0, 3)), 1);
        let t = SimTime::from_micros(1);
        dequeue(&mut m, &mut s, t, q(0, 3), q(1, 3), 1_048);
        assert_eq!(packet_count(&s, q(0, 3)), 0);
        assert_eq!(s.tau_ns(q(0, 3), t), 0.0);
    }

    #[test]
    fn paused_time_does_not_decay_tau() {
        let mut m = mmu();
        let mut s = SojournModule::new();
        let queued = [(q(0, 3), q(1, 3), 125_000)];
        enqueue(&mut m, &mut s, SimTime::ZERO, q(0, 3), q(1, 3), 125_000);
        let before = s.tau_ns(q(0, 3), SimTime::ZERO);
        // Downstream pauses egress (1,3): τ freezes.
        set_paused(&mut m, &mut s, SimTime::ZERO, q(1, 3), true, &queued);
        assert_eq!(s.tau_ns(q(0, 3), SimTime::from_micros(30)), before);
        // Resume: decay continues.
        let t = SimTime::from_micros(30);
        set_paused(&mut m, &mut s, t, q(1, 3), false, &queued);
        assert!(s.tau_ns(q(0, 3), SimTime::from_micros(50)) < before);
    }

    #[test]
    fn sum_active_tau_counts_each_active_queue() {
        let mut m = mmu();
        let mut s = SojournModule::new();
        enqueue(&mut m, &mut s, SimTime::ZERO, q(0, 3), q(1, 3), 12_500);
        enqueue(&mut m, &mut s, SimTime::ZERO, q(2, 3), q(3, 3), 12_500);
        let c = s.sum_tau_ns(SimTime::ZERO);
        let t0 = s.tau_ns(q(0, 3), SimTime::ZERO);
        let t2 = s.tau_ns(q(2, 3), SimTime::ZERO);
        assert_eq!(c, t0 + t2);
    }

    #[test]
    fn pause_before_first_packet_freezes_later_arrivals() {
        let mut m = mmu();
        let mut s = SojournModule::new();
        // The edge finds nothing queued, and the module holds no record.
        set_paused(&mut m, &mut s, SimTime::ZERO, q(1, 3), true, &[]);
        enqueue(&mut m, &mut s, SimTime::ZERO, q(0, 3), q(1, 3), 12_500);
        let t0 = s.tau_ns(q(0, 3), SimTime::ZERO);
        let t100 = SimTime::from_micros(100);
        assert_eq!(s.tau_ns(q(0, 3), t100), t0, "paused packet must not decay");
        let queued = [(q(0, 3), q(1, 3), 12_500)];
        set_paused(&mut m, &mut s, t100, q(1, 3), false, &queued);
        let later = s.tau_ns(q(0, 3), SimTime::from_micros(101));
        assert_eq!(later, t0 - 1_000.0, "decays once resumed");
    }

    #[test]
    fn pause_edges_with_nothing_queued_change_nothing() {
        let mut s = SojournModule::new();
        s.on_pause_changed(SimTime::ZERO, q(1, 3), true, &[0; 4]);
        s.on_pause_changed(SimTime::from_micros(2), q(1, 3), false, &[]);
        assert_eq!(s.sum_active_tau(SimTime::from_micros(4)), 0.0);
        assert!(s.table.records.is_empty());
    }

    #[test]
    fn records_are_sized_by_use() {
        let mut m = mmu_of(36);
        let mut s = SojournModule::new();
        for k in 0..100 {
            let t = SimTime::from_nanos(k * 50);
            enqueue(&mut m, &mut s, t, q(4, 3), q(30, 3), 1_048);
            enqueue(&mut m, &mut s, t, q(35, 1), q(0, 1), 1_048);
        }
        assert_eq!(s.table.records.len(), 2);
        assert_eq!(s.slots.len(), 36 * Priority::COUNT);
        assert_eq!(packet_count(&s, q(4, 3)), 100);
    }

    /// Growing the record is a deliberate edit of this bound: a switch
    /// holds one per ingress queue in use.
    #[test]
    fn record_stays_small() {
        assert_eq!(std::mem::size_of::<Record>(), 32);
    }

    #[test]
    fn incremental_sum_matches_naive_after_decay_expiry() {
        let mut m = mmu();
        let mut s = SojournModule::new();
        // Two queues with different zero-crossing times.
        enqueue(&mut m, &mut s, SimTime::ZERO, q(0, 3), q(1, 3), 12_500); // ≈ 4 µs
        enqueue(&mut m, &mut s, SimTime::ZERO, q(2, 3), q(3, 3), 125_000); // ≈ 40 µs
        for us in [0u64, 2, 4, 6, 20, 39, 41, 100] {
            let t = SimTime::from_micros(us);
            let inc = s.sum_active_tau(t);
            let naive = s.sum_active_tau_naive(t);
            assert!(
                (inc - naive).abs() < 1e-9,
                "at {us}µs: inc {inc} naive {naive}"
            );
        }
    }

    #[test]
    fn incremental_sum_matches_naive_across_pause_cycle() {
        let mut m = mmu();
        let mut s = SojournModule::new();
        let mut queued = vec![(q(0, 3), q(1, 3), 125_000)];
        enqueue(&mut m, &mut s, SimTime::ZERO, q(0, 3), q(1, 3), 125_000);
        let t1 = SimTime::from_micros(1);
        enqueue(&mut m, &mut s, t1, q(2, 3), q(1, 3), 12_500);
        queued.push((q(2, 3), q(1, 3), 12_500));
        let t2 = SimTime::from_micros(2);
        set_paused(&mut m, &mut s, t2, q(1, 3), true, &queued);
        let t = SimTime::from_micros(10);
        assert!((s.sum_active_tau(t) - s.sum_active_tau_naive(t)).abs() < 1e-9);
        let t12 = SimTime::from_micros(12);
        set_paused(&mut m, &mut s, t12, q(1, 3), false, &queued);
        let t14 = SimTime::from_micros(14);
        dequeue(&mut m, &mut s, t14, q(0, 3), q(1, 3), 125_000);
        for us in [14u64, 15, 30, 60, 200] {
            let t = SimTime::from_micros(us);
            let inc = s.sum_active_tau(t);
            let naive = s.sum_active_tau_naive(t);
            assert!(
                (inc - naive).abs() < 1e-9,
                "at {us}µs: inc {inc} naive {naive}"
            );
        }
    }

    /// The indexed expiry heap holds exactly the counted records that
    /// are still draining, ordered and keyed on their zero crossings,
    /// with positions exact both ways; the slot map is a bijection onto
    /// the records.
    fn check_expiry_index(s: &SojournModule, ctx: &str) {
        let t = &s.table;
        assert!(t.expiry.len() <= t.live, "{ctx}: heap exceeds live");
        let counted = t.records.iter().filter(|r| r.counted).count();
        assert_eq!(t.live, counted, "{ctx}: live count");
        for (p, &(tz, flat, slot)) in t.expiry.iter().enumerate() {
            let rec = &t.records[slot as usize];
            assert_eq!(rec.pos, p as u32, "{ctx}: pos of heap[{p}]");
            assert_eq!(s.slots[flat as usize], slot, "{ctx}: queue of heap[{p}]");
            let crossing = rec.t_prev.as_nanos() + rec.total.div_ceil(rec.active());
            assert_eq!(tz, crossing, "{ctx}: key of heap[{p}]");
            if p > 0 {
                assert!(t.expiry[(p - 1) / 2] < t.expiry[p], "{ctx}: order at {p}");
            }
        }
        for (i, rec) in t.records.iter().enumerate() {
            let draining = rec.counted && rec.n > rec.paused_n;
            assert_eq!(rec.pos != UNFILED, draining, "{ctx}: record {i} filed");
            if draining {
                let at = t.expiry[rec.pos as usize].2;
                assert_eq!(at, i as u32, "{ctx}: heap[pos of {i}]");
            }
        }
        let mut mapped: Vec<u32> = s.slots.iter().copied().filter(|&x| x != UNFILED).collect();
        mapped.sort_unstable();
        let all: Vec<u32> = (0..t.records.len() as u32).collect();
        assert_eq!(mapped, all, "{ctx}: slot map");
    }

    #[test]
    fn expiry_heap_holds_exactly_the_draining_counted_records() {
        use dcn_sim::SimRng;
        for case in 0..64u64 {
            let mut rng = SimRng::seed_from_u64(0xE000 + case);
            let mut m = mmu();
            let mut s = SojournModule::new();
            let mut queued: Vec<(QueueIndex, QueueIndex, u64)> = Vec::new();
            let mut t = SimTime::ZERO;
            for step in 0..300 + rng.below(300) {
                // 0–20 µs apart, so some records decay to zero untouched.
                t += SimDuration::from_nanos(rng.below(20_000));
                let prio = rng.below(Priority::COUNT as u64) as u8;
                match rng.below(8) {
                    0..=2 => {
                        let (qi, qo) = (q(rng.below(4) as u16, prio), q(rng.below(4) as u16, prio));
                        let bytes = 64 + rng.below(60_000);
                        enqueue(&mut m, &mut s, t, qi, qo, bytes);
                        queued.push((qi, qo, bytes));
                    }
                    3 | 4 if !queued.is_empty() => {
                        let ix = rng.below(queued.len() as u64) as usize;
                        let (qi, qo, bytes) = queued.swap_remove(ix);
                        dequeue(&mut m, &mut s, t, qi, qo, bytes);
                    }
                    5 | 6 => {
                        let qo = q(rng.below(4) as u16, prio);
                        let paused = rng.below(2) == 1;
                        set_paused(&mut m, &mut s, t, qo, paused, &queued);
                    }
                    // A bare read also advances the aggregate.
                    _ => {}
                }
                let ctx = format!("case {case} step {step}");
                let (inc, naive) = (s.sum_active_tau(t), s.sum_active_tau_naive(t));
                assert!((inc - naive).abs() <= 1e-9, "{ctx}: {inc} vs naive {naive}");
                check_expiry_index(&s, &ctx);
            }
        }
    }

    #[test]
    fn repeated_enqueues_keep_one_expiry_entry_per_record() {
        // One ingress queue feeding an ever-deeper egress queue: its zero
        // crossing moves further out with every packet and is never
        // reached, so its one entry is re-keyed in place each time.
        let mut m = mmu();
        let mut s = SojournModule::new();
        for k in 0..10_000u64 {
            let t = SimTime::from_nanos(k);
            enqueue(&mut m, &mut s, t, q(0, 3), q(1, 3), 100);
        }
        assert_eq!(packet_count(&s, q(0, 3)), 10_000);
        assert_eq!(s.table.expiry.len(), 1);
        check_expiry_index(&s, "after 10 000 enqueues");
    }
}
