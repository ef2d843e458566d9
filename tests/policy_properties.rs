//! Property-based tests of the buffer-management policies and the
//! paper's closed-form analysis, driven by seeded random op sequences
//! (the build is offline, so the generator is [`SimRng`] rather than
//! proptest). Each property replays many independent random cases; a
//! failure message carries the case seed for replay.

use dcn_experiments::all_policies;
use dcn_net::{PortId, Priority};
use dcn_sim::{BitRate, Bytes, SimDuration, SimRng, SimTime};
use dcn_switch::{AbmPolicy, BufferPolicy, DtPolicy, MmuState, Pool, QueueIndex, SwitchConfig};
use l2bm::analysis::{steady_state_occupancy, steady_state_thresholds};
use l2bm::{L2bmConfig, L2bmPolicy, SojournModule};

const N_PORTS: usize = 8;
const CASES: u64 = 64;

fn qix(port: u16, prio: u8) -> QueueIndex {
    QueueIndex::new(PortId::new(port), Priority::new(prio))
}

/// A random but *valid* MMU operation: an enqueue whose matched dequeue
/// is replayed later in order.
#[derive(Debug, Clone, Copy)]
struct Op {
    in_port: u16,
    out_port: u16,
    prio: u8,
    size: u64,
    headroom: bool,
}

fn random_ops(rng: &mut SimRng, max_len: u64) -> Vec<Op> {
    let len = rng.below(max_len) + 1;
    (0..len)
        .map(|_| Op {
            in_port: rng.below(N_PORTS as u64) as u16,
            out_port: rng.below(N_PORTS as u64) as u16,
            prio: rng.below(8) as u8,
            size: 64 + rng.below(1_936),
            headroom: rng.below(2) == 1,
        })
        .collect()
}

/// Charges every op the switch would admit, telling each of `policies`
/// after each charge, as the switch does.
fn apply_ops(
    ops: &[Op],
    policies: &mut [Box<dyn BufferPolicy>],
) -> (MmuState, Vec<(QueueIndex, QueueIndex, dcn_switch::Charge)>) {
    let cfg = SwitchConfig {
        headroom_per_queue: Bytes::from_kb(50),
        ..SwitchConfig::default()
    };
    let mut m = MmuState::new(&cfg, vec![BitRate::from_gbps(25); N_PORTS]);
    let mut charged = Vec::new();
    for op in ops {
        let qi = qix(op.in_port, op.prio);
        let qo = qix(op.out_port, op.prio);
        let pool = if op.headroom {
            Pool::Headroom
        } else {
            Pool::Shared
        };
        let c = m.plan_charge(qi, Bytes::new(op.size), pool);
        if c.pool == Pool::Headroom && c.total() > m.headroom_available(qi) {
            continue; // switch would have dropped it
        }
        m.charge(qi, qo, c);
        for p in policies.iter_mut() {
            p.on_enqueue(&m, SimTime::ZERO, qi, qo, c.total());
        }
        charged.push((qi, qo, c));
    }
    (m, charged)
}

#[test]
fn mmu_conservation_holds_through_any_schedule() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x1000 + case);
        let ops = random_ops(&mut rng, 200);
        let (mut m, charged) = apply_ops(&ops, &mut []);
        m.check_conservation()
            .unwrap_or_else(|e| panic!("case {case}: conservation after charges: {e}"));
        // Drain everything in FIFO order.
        let mut t = SimTime::ZERO;
        for (qi, qo, c) in charged {
            t += SimDuration::from_nanos(100);
            m.discharge(t, qi, qo, c);
            m.check_conservation()
                .unwrap_or_else(|e| panic!("case {case}: conservation during drain: {e}"));
        }
        assert_eq!(m.total_stored(), Bytes::ZERO, "case {case}");
        assert_eq!(m.shared_used(), Bytes::ZERO, "case {case}");
    }
}

/// Reference for ABM's `n_p`: ingress queues of `prio` holding at
/// least one MTU, by full scan of the MMU.
fn congested_count_naive(m: &MmuState, prio: Priority) -> usize {
    (0..m.port_count())
        .filter(|&p| m.ingress_total(QueueIndex::new(PortId::new(p as u16), prio)) >= m.mtu())
        .count()
}

#[test]
fn congested_ingress_counts_match_naive_recomputation() {
    // ABM's per-priority congested counts, kept by its enqueue/dequeue
    // hooks, must equal a full scan after every charge and discharge.
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x2000 + case);
        let ops = random_ops(&mut rng, 150);
        let cfg = SwitchConfig {
            headroom_per_queue: Bytes::from_kb(50),
            ..SwitchConfig::default()
        };
        let mut m = MmuState::new(&cfg, vec![BitRate::from_gbps(25); N_PORTS]);
        let mut abm = AbmPolicy::new(0.5);
        let mut charged = Vec::new();
        let mut t = SimTime::ZERO;
        let check = |m: &MmuState, abm: &AbmPolicy, what: &str| {
            for prio in Priority::all() {
                assert_eq!(
                    abm.congested_count(prio),
                    congested_count_naive(m, prio),
                    "case {case} {what}: congested count diverged at {prio:?}"
                );
            }
        };
        for op in &ops {
            let qi = qix(op.in_port, op.prio);
            let qo = qix(op.out_port, op.prio);
            let pool = if op.headroom {
                Pool::Headroom
            } else {
                Pool::Shared
            };
            let c = m.plan_charge(qi, Bytes::new(op.size), pool);
            if c.pool == Pool::Headroom && c.total() > m.headroom_available(qi) {
                continue;
            }
            m.charge(qi, qo, c);
            abm.on_enqueue(&m, t, qi, qo, c.total());
            charged.push((qi, qo, c));
            check(&m, &abm, "after charge");
            // Randomly interleave some dequeues.
            if rng.below(3) == 0 && !charged.is_empty() {
                let (qi, qo, c) = charged.remove(0);
                t += SimDuration::from_nanos(100);
                m.discharge(t, qi, qo, c);
                abm.on_dequeue(&m, t, qi, qo, c.total());
                check(&m, &abm, "after discharge");
            }
        }
        for (qi, qo, c) in charged {
            t += SimDuration::from_nanos(100);
            m.discharge(t, qi, qo, c);
            abm.on_dequeue(&m, t, qi, qo, c.total());
            check(&m, &abm, "during drain");
        }
    }
}

/// What the switch passes the pause hook of egress queue `qo`: per
/// ingress port, the packets of `queued` charged to `qo`.
fn queued_from<T>(queued: &[(QueueIndex, QueueIndex, T)], qo: QueueIndex) -> Vec<u32> {
    let mut from = vec![0; N_PORTS];
    for (qi, _, _) in queued.iter().filter(|e| e.1 == qo) {
        from[qi.port.index()] += 1;
    }
    from
}

#[test]
fn incremental_sum_active_tau_matches_naive_recomputation() {
    // Arbitrary interleavings of enqueue / dequeue / pause / resume with
    // time advancing between steps: the incrementally-maintained C must
    // track the full rescan within float tolerance, including across
    // records decaying to zero between events.
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x3000 + case);
        let cfg = SwitchConfig {
            headroom_per_queue: Bytes::from_kb(50),
            ..SwitchConfig::default()
        };
        let mut m = MmuState::new(&cfg, vec![BitRate::from_gbps(25); N_PORTS]);
        let mut sojourn = SojournModule::new();
        let mut queued: Vec<(QueueIndex, QueueIndex, dcn_switch::Charge)> = Vec::new();
        let mut t = SimTime::ZERO;
        let steps = 100 + rng.below(100);
        for step in 0..steps {
            // Advance time by 0–20 µs so some records fully decay.
            t += SimDuration::from_nanos(rng.below(20_000));
            match rng.below(4) {
                0 | 1 => {
                    let op = random_ops(&mut rng, 1)[0];
                    let qi = qix(op.in_port, op.prio);
                    let qo = qix(op.out_port, op.prio);
                    let c = m.plan_charge(qi, Bytes::new(op.size), Pool::Shared);
                    m.charge(qi, qo, c);
                    sojourn.on_enqueue(&m, t, qi, qo, m.egress_paused(qo));
                    queued.push((qi, qo, c));
                }
                2 => {
                    if !queued.is_empty() {
                        let ix = rng.below(queued.len() as u64) as usize;
                        let (qi, qo, c) = queued.remove(ix);
                        m.discharge(t, qi, qo, c);
                        sojourn.on_dequeue(t, qi, m.egress_paused(qo));
                    }
                }
                _ => {
                    let qo = qix(rng.below(N_PORTS as u64) as u16, rng.below(8) as u8);
                    let paused = rng.below(2) == 1;
                    if m.set_egress_paused(qo, paused) {
                        sojourn.on_pause_changed(t, qo, paused, &queued_from(&queued, qo));
                    }
                }
            }
            let inc = sojourn.sum_active_tau(t);
            let naive = sojourn.sum_active_tau_naive(t);
            assert!(
                (inc - naive).abs() < 1e-9,
                "case {case} step {step}: incremental {inc} vs naive {naive}"
            );
            // Also probe a later instant with no intervening mutation
            // (simulation time is monotone, so the clock moves there).
            let t2 = t + SimDuration::from_nanos(rng.below(30_000));
            let inc2 = sojourn.sum_active_tau(t2);
            let naive2 = sojourn.sum_active_tau_naive(t2);
            assert!(
                (inc2 - naive2).abs() < 1e-9,
                "case {case} step {step} (probe): incremental {inc2} vs naive {naive2}"
            );
            t = t2;
        }
    }
}

#[test]
fn thresholds_are_bounded_by_remaining_buffer() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x4000 + case);
        let ops = random_ops(&mut rng, 150);
        let alpha = 0.01 + rng.uniform_f64() * 0.98;
        let mut abm: [Box<dyn BufferPolicy>; 1] = [Box::new(AbmPolicy::new(alpha))];
        let (m, _) = apply_ops(&ops, &mut abm);
        let abm = &mut abm[0];
        let now = SimTime::from_micros(50);
        let mut dt = DtPolicy::new(alpha);
        let mut l2bm = L2bmPolicy::new(L2bmConfig::default());
        for port in 0..N_PORTS as u16 {
            for prio in 0..8u8 {
                let q = qix(port, prio);
                let t_dt = dt.pfc_threshold(&m, q, now);
                let t_abm = abm.pfc_threshold(&m, q, now);
                let t_l2bm = l2bm.pfc_threshold(&m, q, now);
                assert!(t_dt <= m.shared_remaining(), "case {case}");
                assert!(t_abm <= t_dt, "case {case}: ABM divides DT's allotment");
                assert!(
                    t_l2bm <= m.shared_remaining(),
                    "case {case}: w_max=1 caps at remaining"
                );
            }
        }
    }
}

#[test]
fn l2bm_weight_respects_cap_and_positivity() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x5000 + case);
        let ops = random_ops(&mut rng, 100);
        let cap = 0.05 + rng.uniform_f64() * 1.95;
        let cfg = L2bmConfig {
            max_weight: cap,
            ..L2bmConfig::default()
        };
        let mut policy = L2bmPolicy::new(cfg);
        let (m, charged) = apply_ops(&ops, &mut []);
        // Feed the policy the same enqueue history.
        let mut t = SimTime::ZERO;
        for (qi, qo, c) in &charged {
            t += SimDuration::from_nanos(50);
            policy.on_enqueue(&m, t, *qi, *qo, c.total());
        }
        for port in 0..N_PORTS as u16 {
            let w = policy.weight(qix(port, 3), t);
            assert!(w > 0.0, "case {case}: weight must stay positive");
            assert!(w <= cap + 1e-12, "case {case}: weight {w} above cap {cap}");
        }
    }
}

#[test]
fn steady_state_thresholds_sum_to_occupancy() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x6000 + case);
        let n = rng.below(31) + 1;
        let weights: Vec<f64> = (0..n).map(|_| rng.uniform_f64() * 4.0).collect();
        let b = Bytes::from_mb(4);
        let q = steady_state_occupancy(b, &weights);
        assert!(q <= b, "case {case}");
        let sum: f64 = steady_state_thresholds(b, &weights)
            .iter()
            .map(|t| t.as_f64())
            .sum();
        // Integer rounding only: one byte per queue at most.
        assert!(
            (sum - q.as_f64()).abs() <= weights.len() as f64 + 1.0,
            "case {case}"
        );
    }
}

#[test]
fn steady_state_occupancy_monotone_in_weights() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x7000 + case);
        let n = rng.below(15) + 1;
        let weights: Vec<f64> = (0..n).map(|_| 0.01 + rng.uniform_f64() * 1.99).collect();
        let extra = 0.01 + rng.uniform_f64() * 1.99;
        let b = Bytes::from_mb(4);
        let q1 = steady_state_occupancy(b, &weights);
        let mut more = weights.clone();
        more.push(extra);
        let q2 = steady_state_occupancy(b, &more);
        assert!(
            q2 >= q1,
            "case {case}: adding an active queue cannot shrink occupancy"
        );
    }
}

#[test]
fn dt_threshold_decreases_as_buffer_fills() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x8000 + case);
        let n = rng.below(39) + 1;
        let sizes: Vec<u64> = (0..n).map(|_| 1_000 + rng.below(49_000)).collect();
        let cfg = SwitchConfig::default();
        let mut m = MmuState::new(&cfg, vec![BitRate::from_gbps(25); N_PORTS]);
        let mut dt = DtPolicy::new(0.5);
        let now = SimTime::ZERO;
        let mut last = dt.pfc_threshold(&m, qix(0, 3), now);
        for (i, size) in sizes.iter().enumerate() {
            let qi = qix((i % N_PORTS) as u16, 3);
            let c = m.plan_charge(qi, Bytes::new(*size), Pool::Shared);
            m.charge(qi, qix(((i + 1) % N_PORTS) as u16, 3), c);
            let t = dt.pfc_threshold(&m, qix(0, 3), now);
            assert!(
                t <= last,
                "case {case}: DT threshold must be non-increasing as Q grows"
            );
            last = t;
        }
    }
}

#[test]
fn all_six_policy_thresholds_are_bounded() {
    // The arena-wide bound: no policy may ever grant a queue more than
    // the remaining shared pool, whatever MMU state random schedules
    // reach. (Tighter per-policy bounds are asserted elsewhere; this is
    // the battery invariant all six share.)
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x9000 + case);
        let ops = random_ops(&mut rng, 150);
        let choices = all_policies();
        let mut policies: Vec<Box<dyn BufferPolicy>> = choices.iter().map(|c| c.build()).collect();
        let (m, _) = apply_ops(&ops, &mut policies);
        let now = SimTime::from_micros(50);
        for (choice, p) in choices.iter().zip(&mut policies) {
            for port in 0..N_PORTS as u16 {
                for prio in 0..8u8 {
                    let t = p.pfc_threshold(&m, qix(port, prio), now);
                    assert!(
                        t <= m.shared_remaining(),
                        "case {case}: {} grants {t:?} above remaining {:?}",
                        choice.label(),
                        m.shared_remaining()
                    );
                }
            }
        }
    }
}

#[test]
fn bshare_incremental_weight_matches_naive_recomputation() {
    // Both sojourn rules' admission-path weights (BShare's and L2BM's)
    // read the incrementally-maintained aggregate delay; the reference
    // reads the full rescan. Arbitrary interleavings of enqueue /
    // dequeue / pause / resume with time advancing between steps must
    // keep them within float tolerance.
    for case in 0..2 * CASES {
        let mut rng = SimRng::seed_from_u64(0xA000 + case / 2);
        let cfg = SwitchConfig {
            headroom_per_queue: Bytes::from_kb(50),
            ..SwitchConfig::default()
        };
        let mut m = MmuState::new(&cfg, vec![BitRate::from_gbps(25); N_PORTS]);
        let mut policy = if case % 2 == 0 {
            L2bmPolicy::bshare()
        } else {
            L2bmPolicy::default()
        };
        let mut queued: Vec<(QueueIndex, QueueIndex, dcn_switch::Charge)> = Vec::new();
        let mut t = SimTime::ZERO;
        let steps = 80 + rng.below(80);
        for step in 0..steps {
            t += SimDuration::from_nanos(rng.below(20_000));
            match rng.below(4) {
                0 | 1 => {
                    let op = random_ops(&mut rng, 1)[0];
                    let qi = qix(op.in_port, op.prio);
                    let qo = qix(op.out_port, op.prio);
                    let c = m.plan_charge(qi, Bytes::new(op.size), Pool::Shared);
                    m.charge(qi, qo, c);
                    policy.on_enqueue(&m, t, qi, qo, c.total());
                    queued.push((qi, qo, c));
                }
                2 => {
                    if !queued.is_empty() {
                        let ix = rng.below(queued.len() as u64) as usize;
                        let (qi, qo, c) = queued.remove(ix);
                        m.discharge(t, qi, qo, c);
                        policy.on_dequeue(&m, t, qi, qo, c.total());
                    }
                }
                _ => {
                    let qo = qix(rng.below(N_PORTS as u64) as u16, rng.below(8) as u8);
                    let paused = rng.below(2) == 1;
                    if m.set_egress_paused(qo, paused) {
                        policy.on_egress_pause_changed(t, qo, paused, &queued_from(&queued, qo));
                    }
                }
            }
            // Probe a handful of random queues at the current instant.
            for _ in 0..4 {
                let q = qix(rng.below(N_PORTS as u64) as u16, rng.below(8) as u8);
                let inc = policy.weight(q, t);
                let naive = policy.weight_naive(q, t);
                assert!(
                    (inc - naive).abs() <= 1e-9,
                    "case {case} step {step}: incremental {inc} vs naive {naive} at {q:?}"
                );
            }
        }
    }
}

/// Reference Occamy victim rule: argmax egress backlog over the flat
/// queue order (port outer, priority inner), skipping protected
/// priorities, requiring strictly more backlog than the arriving
/// packet's own (unprotected) egress queue; first-seen wins ties.
fn occamy_reference_victim(
    m: &MmuState,
    protected: &[Priority],
    q_out: QueueIndex,
) -> Option<QueueIndex> {
    let own = if protected.contains(&q_out.priority) {
        Bytes::ZERO
    } else {
        m.egress_bytes(q_out)
    };
    let mut best: Option<(Bytes, QueueIndex)> = None;
    for port in 0..m.port_count() {
        for prio in Priority::all() {
            if protected.contains(&prio) {
                continue;
            }
            let q = QueueIndex::new(PortId::new(port as u16), prio);
            let b = m.egress_bytes(q);
            if b > own && best.is_none_or(|(bb, _)| b > bb) {
                best = Some((b, q));
            }
        }
    }
    best.map(|(_, q)| q)
}

#[test]
fn occamy_victim_matches_reference_scan() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0xB000 + case);
        let ops = random_ops(&mut rng, 150);
        let (m, _) = apply_ops(&ops, &mut []);
        // Random protection mask: none, the RDMA priority, or two.
        let protected: Vec<Priority> = match rng.below(3) {
            0 => vec![],
            1 => vec![Priority::new(3)],
            _ => vec![
                Priority::new(rng.below(8) as u8),
                Priority::new(rng.below(8) as u8),
            ],
        };
        let policy = DtPolicy::new(0.5).preempting(&protected);
        for _ in 0..16 {
            let q_out = qix(rng.below(N_PORTS as u64) as u16, rng.below(8) as u8);
            assert_eq!(
                policy.plan_eviction(&m, q_out),
                occamy_reference_victim(&m, &protected, q_out),
                "case {case}: victim diverged for q_out {q_out:?} protected {protected:?}"
            );
        }
    }
}

#[test]
fn l2bm_single_active_queue_degenerates_to_dt() {
    // Deterministic edge case of Eq. 3: C = τ, so the weight is exactly α.
    let mut policy = L2bmPolicy::new(L2bmConfig::default());
    let cfg = SwitchConfig::default();
    let mut m = MmuState::new(&cfg, vec![BitRate::from_gbps(25); N_PORTS]);
    m.charge_bulk(qix(0, 3), qix(1, 3), Bytes::new(100_000), Pool::Shared);
    policy.on_enqueue(&m, SimTime::ZERO, qix(0, 3), qix(1, 3), Bytes::new(100_000));
    let mut dt = DtPolicy::new(0.125);
    assert_eq!(
        policy.pfc_threshold(&m, qix(0, 3), SimTime::ZERO),
        dt.pfc_threshold(&m, qix(0, 3), SimTime::ZERO)
    );
}
