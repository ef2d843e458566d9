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
//! make L2BM spread the pause further upstream.
//!
//! The paper's Algorithm 1 as printed updates `t_total` on dequeue with
//! `t_total − (t_now − t_prev)`; we implement the self-consistent version
//! of the same bookkeeping (settle the decay term first, then remove the
//! departing packet, whose remaining estimate has already decayed to
//! ≈ 0), and clamp `t_total ≥ 0` against estimator error.
//!
//! # Hot-path complexity
//!
//! `pfc_threshold` runs per packet, so the normalization constant
//! `C = Σ τ` must not be recomputed by scanning every queue. Each
//! queue's unclamped contribution is linear in time — value
//! `t_total/N`, slope `active/N` — so the module keeps the aggregate
//! `Σ τ` and `Σ active/N` and advances them lazily by elapsed time.
//! Clamping at zero is handled by an *indexed* expiry min-heap keyed on
//! each record's zero-crossing instant (`t_prev + t_total/active`): a
//! counted, draining record owns exactly one entry, found through a
//! back-index and replaced whenever the record is touched, so the heap
//! is bounded by the ingress-queue count and every pop is a real zero
//! crossing. [`SojournModule::sum_active_tau`] is then O(log k)
//! amortized in the number of records that expired since the last call
//! — O(1) when nothing crossed zero — instead of O(#queues). The
//! aggregate lives in a `RefCell` because threshold reads take `&self`.

use std::cell::RefCell;

use dcn_net::Priority;
use dcn_sim::{SimDuration, SimTime};
use dcn_switch::{MmuState, QueueIndex};

/// Per-ingress-queue sojourn record.
#[derive(Debug, Clone, Copy, Default)]
struct Record {
    /// Σ estimated remaining residence time of buffered packets, seconds.
    total: f64,
    /// Buffered packet count `N`.
    n: u64,
    /// Packets currently sitting in paused egress queues (excluded from
    /// the decay term).
    paused_n: u64,
    /// Last settle instant.
    t_prev: SimTime,
}

impl Record {
    fn settle(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.t_prev).as_secs_f64();
        if dt > 0.0 {
            let active = self.n.saturating_sub(self.paused_n) as f64;
            self.total = (self.total - active * dt).max(0.0);
        }
        self.t_prev = now;
    }

    /// The record's *unclamped* contribution to `Σ τ` at `t`:
    /// `(value, decay slope per second)`. Only meaningful while the
    /// record is counted in the aggregate (i.e. before its zero
    /// crossing).
    fn linear_contribution(&self, t: SimTime) -> (f64, f64) {
        let n = self.n as f64;
        let active = self.n.saturating_sub(self.paused_n) as f64;
        let dt = t.saturating_since(self.t_prev).as_secs_f64();
        ((self.total - active * dt) / n, active / n)
    }
}

/// `AggState::pos` value of a record with no expiry-heap entry.
const UNFILED: u32 = u32::MAX;

/// `x.ceil() as u64` for every `f64` (NaN and negatives give 0, values
/// past `u64::MAX` saturate) without the libm `ceil` call that baseline
/// x86-64 compiles `f64::ceil` to.
fn ceil_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from((t as f64) < x))
}

/// One expiry-heap entry: `(zero-crossing ns, record)`. Records are
/// distinct, so the tuple order is total.
type Expiry = (u64, u32);

/// The lazily-advanced aggregate `C = Σ τ` and its bookkeeping.
#[derive(Debug, Default)]
struct AggState {
    /// `Σ τ_i` over counted records, valid at `t`.
    sum: f64,
    /// `Σ active_i/n_i` over counted records — d(sum)/dt.
    decay: f64,
    /// Instant at which `sum` is valid.
    t: SimTime,
    /// Number of counted records (for snapping float drift to zero).
    live: usize,
    /// Whether each record is currently included in `sum`/`decay`.
    counted: Vec<bool>,
    /// Each record's position in `expiry`, or [`UNFILED`].
    pos: Vec<u32>,
    /// Binary min-heap of zero crossings: one entry per counted record
    /// with `active > 0`, and `pos[expiry[p].1] == p` for every `p`.
    expiry: Vec<Expiry>,
}

impl AggState {
    /// Advances `sum` to `now`, retiring every record whose unclamped
    /// contribution crossed zero on the way.
    fn advance(&mut self, records: &[Record], now: SimTime) {
        if now <= self.t {
            return;
        }
        while let Some(&(tz_ns, i)) = self.expiry.first() {
            if tz_ns > now.as_nanos() {
                break;
            }
            let tz = SimTime::from_nanos(tz_ns);
            let dt = tz.saturating_since(self.t).as_secs_f64();
            self.sum -= self.decay * dt;
            self.t = self.t.max(tz);
            self.retire(&records[i as usize], i as usize);
        }
        let dt = now.saturating_since(self.t).as_secs_f64();
        self.sum -= self.decay * dt;
        self.t = now;
    }

    /// Removes a counted record's contribution at the current `t`, and
    /// its expiry entry with it.
    fn retire(&mut self, rec: &Record, i: usize) {
        if !self.counted[i] {
            return;
        }
        self.counted[i] = false;
        self.unfile(i);
        let (value, slope) = rec.linear_contribution(self.t);
        self.sum -= value;
        self.decay -= slope;
        self.live -= 1;
        if self.live == 0 {
            // No records counted: the true sum is exactly zero; snap away
            // any accumulated float drift.
            self.sum = 0.0;
            self.decay = 0.0;
        }
    }

    /// (Re-)enters a just-settled record (`rec.t_prev == self.t`) into
    /// the aggregate.
    fn enroll(&mut self, rec: &Record, i: usize) {
        if rec.n == 0 || rec.total <= 0.0 {
            // Empty or fully-decayed records contribute exactly zero
            // until the next enqueue; keep them out of the aggregate.
            return;
        }
        self.counted[i] = true;
        self.live += 1;
        self.sum += rec.total / rec.n as f64;
        let active = rec.n.saturating_sub(rec.paused_n);
        if active > 0 {
            self.decay += active as f64 / rec.n as f64;
            // Ceil so the heap never fires before the true crossing; the
            // ≤ 1 ns overshoot is absorbed by `retire`'s exact subtraction.
            let tz_s = rec.total / active as f64;
            let tz_ns = rec.t_prev.as_nanos().saturating_add(ceil_u64(tz_s * 1e9));
            let entry = (tz_ns, i as u32);
            self.expiry.push(entry);
            self.sift_up(self.expiry.len() - 1, entry);
        }
    }

    /// Removes record `i`'s expiry entry, if it has one.
    fn unfile(&mut self, i: usize) {
        let p = std::mem::replace(&mut self.pos[i], UNFILED) as usize;
        if p == UNFILED as usize {
            return;
        }
        let last = self.expiry.pop().expect("a filed record has an entry");
        if p == self.expiry.len() {
            return;
        }
        // `last` fills the hole; it may belong above or below it.
        if p > 0 && last < self.expiry[(p - 1) / 2] {
            self.sift_up(p, last);
        } else {
            self.sift_down(p, last);
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
        self.pos[e.1 as usize] = p as u32;
    }
}

/// The residence-time recorder for every ingress queue of one switch.
///
/// Drive it with [`SojournModule::on_enqueue`] /
/// [`SojournModule::on_dequeue`] / [`SojournModule::on_pause_changed`]
/// and read [`SojournModule::tau`] (one queue) or
/// [`SojournModule::sum_active_tau`] (the normalization constant `C`).
///
/// `now` must be non-decreasing across calls — including the read-only
/// [`SojournModule::sum_active_tau`], which advances the incremental
/// aggregate — as is naturally the case inside a discrete-event
/// simulation.
#[derive(Debug, Default)]
pub struct SojournModule {
    records: Vec<Record>,
    /// Packets per (egress queue, ingress queue), densely indexed by
    /// `QueueIndex::flat` on both axes — needed to freeze the right
    /// ingress records when an egress queue pauses.
    by_egress: Vec<Vec<u32>>,
    /// Our own view of egress pause state (kept so settling uses the
    /// state that held *during* the elapsed interval).
    egress_paused: Vec<bool>,
    /// The incremental `Σ τ` aggregate; interior mutability because
    /// threshold reads (`sum_active_tau`) take `&self`.
    agg: RefCell<AggState>,
}

impl SojournModule {
    /// An empty module; per-queue state is sized from the MMU on first
    /// enqueue.
    pub fn new() -> Self {
        SojournModule::default()
    }

    /// Sizes every per-queue table for the switch's full radix, so the
    /// steady-state path neither reallocates nor re-checks lengths.
    fn size_for(&mut self, nq: usize) {
        self.records.resize(nq, Record::default());
        self.by_egress.resize_with(nq, Vec::new);
        // Pause edges may have arrived (and grown this) before any packet.
        self.egress_paused
            .resize(nq.max(self.egress_paused.len()), false);
        let state = self.agg.get_mut();
        state.counted.resize(nq, false);
        state.pos.resize(nq, UNFILED);
    }

    /// Records a packet entering via `q_in`, queued at `q_out`. Call
    /// after the MMU charge, so `mmu.egress_bytes(q_out)` includes the
    /// packet.
    pub fn on_enqueue(
        &mut self,
        mmu: &MmuState,
        now: SimTime,
        q_in: QueueIndex,
        q_out: QueueIndex,
    ) {
        // Estimated residence: output queue depth over its pause-free
        // drain share (pause time must not count — §III-D).
        let mu = mmu.egress_drain_rate_ignoring_pause(q_out);
        let q_bytes = mmu.egress_bytes(q_out);
        let wait = mu.tx_time(q_bytes);
        let wait_s = if wait == SimDuration::MAX {
            0.0
        } else {
            wait.as_secs_f64()
        };

        if self.records.is_empty() {
            self.size_for(mmu.port_count() * Priority::COUNT);
        }
        let i = q_in.flat();
        let of = q_out.flat();
        let out_paused = self.egress_paused[of];
        let state = self.agg.get_mut();
        state.advance(&self.records, now);
        let rec = &mut self.records[i];
        state.retire(rec, i);
        rec.settle(now);
        rec.total += wait_s;
        rec.n += 1;
        if out_paused {
            rec.paused_n += 1;
        }
        state.enroll(rec, i);

        // One row per egress queue actually used, not radix² up front.
        let row = &mut self.by_egress[of];
        if row.is_empty() {
            row.resize(self.records.len(), 0);
        }
        row[i] += 1;
    }

    /// Records a packet leaving `q_in` through `q_out`. A dequeue with
    /// no matching enqueue is ignored.
    pub fn on_dequeue(&mut self, now: SimTime, q_in: QueueIndex, q_out: QueueIndex) {
        let i = q_in.flat();
        let of = q_out.flat();
        let Some(c) = self.by_egress.get_mut(of).and_then(|row| row.get_mut(i)) else {
            return;
        };
        *c = c.saturating_sub(1);
        let out_paused = self.egress_paused[of];
        let state = self.agg.get_mut();
        state.advance(&self.records, now);
        let rec = &mut self.records[i];
        state.retire(rec, i);
        rec.settle(now);
        rec.n = rec.n.saturating_sub(1);
        if out_paused {
            rec.paused_n = rec.paused_n.saturating_sub(1);
        }
        if rec.n == 0 {
            rec.total = 0.0;
            rec.paused_n = 0;
        }
        state.enroll(rec, i);
    }

    /// Records a downstream pause/resume of egress queue `q_out`:
    /// settles every ingress queue holding packets behind it (under the
    /// *old* state), then freezes/unfreezes those packets.
    pub fn on_pause_changed(&mut self, now: SimTime, q_out: QueueIndex, paused: bool) {
        let flat = q_out.flat();
        if self.egress_paused.len() <= flat {
            self.egress_paused.resize(flat + 1, false);
        }
        if self.egress_paused[flat] == paused {
            return;
        }
        self.egress_paused[flat] = paused;
        let Some(counts) = self.by_egress.get(flat) else {
            return;
        };
        let state = self.agg.get_mut();
        state.advance(&self.records, now);
        for (i, &count) in counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let rec = &mut self.records[i];
            state.retire(rec, i);
            rec.settle(now);
            if paused {
                rec.paused_n += u64::from(count);
            } else {
                rec.paused_n = rec.paused_n.saturating_sub(u64::from(count));
            }
            state.enroll(rec, i);
        }
    }

    /// The average sojourn time `τ` of ingress queue `q` at `now`
    /// (Eq. 2), with the decay since the last event applied virtually.
    /// Zero for an empty queue.
    pub fn tau(&self, q: QueueIndex, now: SimTime) -> f64 {
        match self.records.get(q.flat()) {
            Some(rec) if rec.n > 0 => {
                let dt = now.saturating_since(rec.t_prev).as_secs_f64();
                let active = rec.n.saturating_sub(rec.paused_n) as f64;
                let total = (rec.total - active * dt).max(0.0);
                total / rec.n as f64
            }
            _ => 0.0,
        }
    }

    /// Buffered packet count of ingress queue `q`.
    pub fn packet_count(&self, q: QueueIndex) -> u64 {
        self.records.get(q.flat()).map_or(0, |r| r.n)
    }

    /// `Σ τ` over all queues currently holding packets — the paper's
    /// normalization constant `C`. O(1) amortized: reads the incremental
    /// aggregate instead of scanning every queue.
    pub fn sum_active_tau(&self, now: SimTime) -> f64 {
        let mut state = self.agg.borrow_mut();
        state.advance(&self.records, now);
        state.sum.max(0.0)
    }

    /// Reference implementation of [`SojournModule::sum_active_tau`] by
    /// full scan. Kept for differential testing of the incremental
    /// aggregate — not for the admission path.
    pub fn sum_active_tau_naive(&self, now: SimTime) -> f64 {
        (0..self.records.len())
            .filter(|&i| self.records[i].n > 0)
            .map(|i| {
                let rec = &self.records[i];
                let dt = now.saturating_since(rec.t_prev).as_secs_f64();
                let active = rec.n.saturating_sub(rec.paused_n) as f64;
                ((rec.total - active * dt).max(0.0)) / rec.n as f64
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_net::{PortId, Priority};
    use dcn_sim::{BitRate, Bytes};
    use dcn_switch::{Pool, SwitchConfig};

    fn mmu() -> MmuState {
        MmuState::new(&SwitchConfig::default(), vec![BitRate::from_gbps(25); 4])
    }

    fn q(port: u16, prio: u8) -> QueueIndex {
        QueueIndex::new(PortId::new(port), Priority::new(prio))
    }

    /// Charges the MMU and informs the module, like the switch does.
    fn enqueue(
        m: &mut MmuState,
        s: &mut SojournModule,
        now: SimTime,
        qi: QueueIndex,
        qo: QueueIndex,
        bytes: u64,
    ) {
        m.charge_bulk(qi, qo, Bytes::new(bytes), Pool::Shared);
        s.on_enqueue(m, now, qi, qo);
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
        s.on_dequeue(now, qi, qo);
    }

    #[test]
    fn empty_queue_has_zero_tau() {
        let s = SojournModule::new();
        assert_eq!(s.tau(q(0, 3), SimTime::from_micros(5)), 0.0);
        assert_eq!(s.sum_active_tau(SimTime::ZERO), 0.0);
    }

    #[test]
    fn single_packet_estimate_matches_queue_over_rate() {
        let mut m = mmu();
        let mut s = SojournModule::new();
        // 12_500 bytes at 25 Gbps (sole active priority) = 4 µs.
        enqueue(&mut m, &mut s, SimTime::ZERO, q(0, 3), q(1, 3), 12_500);
        let tau = s.tau(q(0, 3), SimTime::ZERO);
        assert!((tau - 4e-6).abs() < 1e-8, "tau {tau}");
    }

    #[test]
    fn tau_decays_with_time() {
        let mut m = mmu();
        let mut s = SojournModule::new();
        enqueue(&mut m, &mut s, SimTime::ZERO, q(0, 3), q(1, 3), 12_500);
        let t0 = s.tau(q(0, 3), SimTime::ZERO);
        let t1 = s.tau(q(0, 3), SimTime::from_micros(2));
        assert!(t1 < t0);
        // Fully decayed after the estimated 4 µs.
        assert_eq!(s.tau(q(0, 3), SimTime::from_micros(10)), 0.0);
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
        let hot = s.tau(q(0, 3), SimTime::ZERO);
        let cold = s.tau(q(0, 1), SimTime::ZERO);
        assert!(hot > 10.0 * cold, "hot {hot} vs cold {cold}");
    }

    #[test]
    fn dequeue_empties_record() {
        let mut m = mmu();
        let mut s = SojournModule::new();
        enqueue(&mut m, &mut s, SimTime::ZERO, q(0, 3), q(1, 3), 1_048);
        assert_eq!(s.packet_count(q(0, 3)), 1);
        dequeue(
            &mut m,
            &mut s,
            SimTime::from_micros(1),
            q(0, 3),
            q(1, 3),
            1_048,
        );
        assert_eq!(s.packet_count(q(0, 3)), 0);
        assert_eq!(s.tau(q(0, 3), SimTime::from_micros(1)), 0.0);
    }

    #[test]
    fn paused_time_does_not_decay_tau() {
        let mut m = mmu();
        let mut s = SojournModule::new();
        enqueue(&mut m, &mut s, SimTime::ZERO, q(0, 3), q(1, 3), 125_000);
        let before = s.tau(q(0, 3), SimTime::ZERO);
        // Downstream pauses egress (1,3): τ freezes.
        m.set_egress_paused(q(1, 3), true);
        s.on_pause_changed(SimTime::ZERO, q(1, 3), true);
        let frozen = s.tau(q(0, 3), SimTime::from_micros(30));
        assert!(
            (frozen - before).abs() < 1e-9,
            "frozen {frozen} vs {before}"
        );
        // Resume: decay continues.
        m.set_egress_paused(q(1, 3), false);
        s.on_pause_changed(SimTime::from_micros(30), q(1, 3), false);
        let later = s.tau(q(0, 3), SimTime::from_micros(50));
        assert!(later < before);
    }

    #[test]
    fn sum_active_tau_counts_each_active_queue() {
        let mut m = mmu();
        let mut s = SojournModule::new();
        enqueue(&mut m, &mut s, SimTime::ZERO, q(0, 3), q(1, 3), 12_500);
        enqueue(&mut m, &mut s, SimTime::ZERO, q(2, 3), q(3, 3), 12_500);
        let c = s.sum_active_tau(SimTime::ZERO);
        let t0 = s.tau(q(0, 3), SimTime::ZERO);
        let t2 = s.tau(q(2, 3), SimTime::ZERO);
        assert!((c - (t0 + t2)).abs() < 1e-12);
    }

    #[test]
    fn enqueue_during_pause_marks_packet_frozen() {
        let mut m = mmu();
        let mut s = SojournModule::new();
        m.set_egress_paused(q(1, 3), true);
        s.on_pause_changed(SimTime::ZERO, q(1, 3), true);
        enqueue(&mut m, &mut s, SimTime::ZERO, q(0, 3), q(1, 3), 12_500);
        let t0 = s.tau(q(0, 3), SimTime::ZERO);
        let t1 = s.tau(q(0, 3), SimTime::from_micros(100));
        assert!((t0 - t1).abs() < 1e-12, "paused packet must not decay");
    }

    #[test]
    fn redundant_pause_events_are_ignored() {
        let mut s = SojournModule::new();
        s.on_pause_changed(SimTime::ZERO, q(1, 3), true);
        s.on_pause_changed(SimTime::from_micros(1), q(1, 3), true);
        s.on_pause_changed(SimTime::from_micros(2), q(1, 3), false);
        s.on_pause_changed(SimTime::from_micros(3), q(1, 3), false);
        // No packets involved — just must not panic or corrupt state.
        assert_eq!(s.sum_active_tau(SimTime::from_micros(4)), 0.0);
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
        enqueue(&mut m, &mut s, SimTime::ZERO, q(0, 3), q(1, 3), 125_000);
        enqueue(
            &mut m,
            &mut s,
            SimTime::from_micros(1),
            q(2, 3),
            q(1, 3),
            12_500,
        );
        s.on_pause_changed(SimTime::from_micros(2), q(1, 3), true);
        let t = SimTime::from_micros(10);
        assert!((s.sum_active_tau(t) - s.sum_active_tau_naive(t)).abs() < 1e-9);
        s.on_pause_changed(SimTime::from_micros(12), q(1, 3), false);
        dequeue(
            &mut m,
            &mut s,
            SimTime::from_micros(14),
            q(0, 3),
            q(1, 3),
            125_000,
        );
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
    /// are still draining, ordered, with the back-index exact both ways.
    fn check_expiry_index(s: &SojournModule, ctx: &str) {
        let st = s.agg.borrow();
        assert!(st.expiry.len() <= st.live, "{ctx}: heap exceeds live");
        assert_eq!(
            st.live,
            st.counted.iter().filter(|&&c| c).count(),
            "{ctx}: live count"
        );
        for (p, &(_, i)) in st.expiry.iter().enumerate() {
            assert_eq!(st.pos[i as usize], p as u32, "{ctx}: pos of heap[{p}]");
            if p > 0 {
                assert!(st.expiry[(p - 1) / 2] < st.expiry[p], "{ctx}: order at {p}");
            }
        }
        for (i, rec) in s.records.iter().enumerate() {
            let draining = st.counted[i] && rec.n > rec.paused_n;
            assert_eq!(st.pos[i] != UNFILED, draining, "{ctx}: record {i} filed");
            if draining {
                assert_eq!(
                    st.expiry[st.pos[i] as usize].1, i as u32,
                    "{ctx}: heap[pos[{i}]]"
                );
            }
        }
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
                        if m.set_egress_paused(qo, paused) {
                            s.on_pause_changed(t, qo, paused);
                        }
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
        // reached. The lazily-invalidated heap kept all 10 000 entries.
        let mut m = mmu();
        let mut s = SojournModule::new();
        for k in 0..10_000u64 {
            enqueue(
                &mut m,
                &mut s,
                SimTime::from_nanos(k),
                q(0, 3),
                q(1, 3),
                100,
            );
        }
        assert_eq!(s.packet_count(q(0, 3)), 10_000);
        assert_eq!(s.agg.borrow().expiry.len(), 1);
        check_expiry_index(&s, "after 10 000 enqueues");
    }

    #[test]
    fn integer_ceiling_matches_f64_ceil() {
        let two53 = 9_007_199_254_740_992.0;
        let two64 = 18_446_744_073_709_551_616.0;
        let mut xs = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            0.5,
            1.0,
            1.0 + f64::EPSILON,
            -0.5,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            two53 - 1.0,
            two53 - 0.5,
            two53,
            two53 + 2.0,
            two64,
            two64 * 2.0,
            f64::MAX,
        ];
        let mut rng = dcn_sim::SimRng::seed_from_u64(0xCE11);
        for _ in 0..100_000 {
            // Every magnitude from 2^-20 to 2^70, and its integer neighbours.
            let x = rng.uniform_f64() * 2f64.powi(rng.below(90) as i32 - 20);
            xs.extend([x, x.floor(), x.ceil(), x.floor() + 0.5]);
        }
        for x in xs {
            assert_eq!(ceil_u64(x), x.ceil() as u64, "x = {x:e}");
        }
    }
}
