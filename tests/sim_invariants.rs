//! Seeded-random property tests of the simulation substrate: event
//! ordering, statistics, workload generators and queue discipline.
//!
//! Each property runs `CASES` independently seeded cases through the
//! deterministic `SimRng`, so failures are reproducible from the case
//! number in the panic message.

use dcn_metrics::{percentile, Cdf, ErrorBarStats};
use dcn_net::{FlowId, NodeId, Packet, PortId, Priority, TrafficClass};
use dcn_sim::{BitRate, Bytes, EmpiricalCdf, EventQueue, SimDuration, SimRng, SimTime};
use dcn_switch::{Charge, EgressPort, PacketPool, QueuedPacket};
use dcn_workload::web_search_cdf;

const CASES: u64 = 64;

fn random_times(rng: &mut SimRng, max_len: u64) -> Vec<u64> {
    let n = 1 + rng.below(max_len);
    (0..n).map(|_| rng.below(1_000_000)).collect()
}

#[test]
fn event_queue_pops_in_nondecreasing_time_order() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x9000 + case);
        let times = random_times(&mut rng, 500);
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut seen = 0;
        while let Some((at, _)) = q.pop() {
            assert!(at >= last, "case {case}: pops must be time-ordered");
            last = at;
            seen += 1;
        }
        assert_eq!(seen, times.len(), "case {case}: every event pops once");
    }
}

#[test]
fn event_queue_equal_times_preserve_insertion_order() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0xa000 + case);
        let n = 1 + rng.below(200) as usize;
        let t = rng.below(1_000);
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule_at(SimTime::from_nanos(t), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            (0..n).collect::<Vec<_>>(),
            "case {case}: equal times must pop FIFO"
        );
    }
}

#[test]
fn percentile_is_monotone_and_bounded() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0xb000 + case);
        let n = 1 + rng.below(300) as usize;
        let mut samples: Vec<f64> = (0..n).map(|_| (rng.uniform_f64() - 0.5) * 2e6).collect();
        let p1 = rng.uniform_f64();
        let p2 = rng.uniform_f64();
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let a = percentile(&samples, lo).expect("non-empty");
        let b = percentile(&samples, hi).expect("non-empty");
        assert!(a <= b, "case {case}: quantiles must be monotone");
        samples.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
        assert!(
            a >= samples[0] && b <= *samples.last().expect("non-empty"),
            "case {case}: quantiles stay inside the sample range"
        );
    }
}

#[test]
fn cdf_fraction_below_is_monotone() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0xc000 + case);
        let n = 1 + rng.below(200) as usize;
        let samples: Vec<f64> = (0..n).map(|_| rng.uniform_f64() * 1e6).collect();
        let mut cdf: Cdf = samples.into_iter().collect();
        let x1 = rng.uniform_f64() * 1e6;
        let x2 = rng.uniform_f64() * 1e6;
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        assert!(
            cdf.fraction_below(lo) <= cdf.fraction_below(hi),
            "case {case}: CDF must be monotone"
        );
        assert!(
            cdf.fraction_below(f64::MAX) == 1.0,
            "case {case}: CDF reaches 1"
        );
    }
}

#[test]
fn error_bars_are_internally_ordered() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0xd000 + case);
        let n = 1 + rng.below(200) as usize;
        let samples: Vec<f64> = (0..n).map(|_| (rng.uniform_f64() - 0.5) * 2e3).collect();
        let s = ErrorBarStats::from_samples(&samples).expect("non-empty");
        assert!(s.min <= s.q25, "case {case}");
        assert!(s.q25 <= s.median, "case {case}");
        assert!(s.median <= s.q75, "case {case}");
        assert!(s.q75 <= s.max, "case {case}");
        assert!(s.min <= s.mean && s.mean <= s.max, "case {case}");
    }
}

#[test]
fn empirical_cdf_quantile_monotone() {
    let cdf = web_search_cdf();
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0xe000 + case);
        let p1 = rng.uniform_f64();
        let p2 = rng.uniform_f64();
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        assert!(
            cdf.quantile(lo) <= cdf.quantile(hi),
            "case {case}: workload CDF quantiles must be monotone"
        );
    }
}

#[test]
fn empirical_cdf_samples_stay_in_support() {
    let cdf = EmpiricalCdf::new(vec![(100, 0.0), (5_000, 0.7), (90_000, 1.0)]).expect("valid");
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0xf000 + case);
        for _ in 0..200 {
            let v = cdf.sample(&mut rng);
            assert!(
                (100..=90_000).contains(&v),
                "case {case}: sample {v} escaped the CDF support"
            );
        }
    }
}

#[test]
fn rate_tx_time_scales_linearly() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x1_0000 + case);
        let gbps = 1 + rng.below(399);
        let bytes = 1 + rng.below(10_000_000);
        let r = BitRate::from_gbps(gbps);
        let one = r.tx_time(Bytes::new(bytes));
        let two = r.tx_time(Bytes::new(bytes * 2));
        // Ceil rounding allows at most 1 ns of sub-linearity.
        assert!(
            two.as_nanos() <= one.as_nanos() * 2,
            "case {case}: tx_time super-linear"
        );
        assert!(
            two.as_nanos() + 1 >= one.as_nanos() * 2 - 1,
            "case {case}: tx_time sub-linear beyond rounding"
        );
    }
}

#[test]
fn egress_port_is_work_conserving_and_fifo() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x2_0000 + case);
        let n = 1 + rng.below(100) as usize;
        let prios: Vec<u8> = (0..n).map(|_| rng.below(8) as u8).collect();
        let (mut pool, mut port) = (PacketPool::default(), EgressPort::new());
        for (i, &p) in prios.iter().enumerate() {
            let packet = Packet::data(
                FlowId::new(i as u64),
                NodeId::new(0),
                NodeId::new(1),
                Priority::new(p),
                TrafficClass::Lossless,
                i as u64,
                Bytes::new(1_000),
                Bytes::new(48),
            );
            let qp = QueuedPacket::new(packet, PortId::new(0), Charge::NONE);
            port.enqueue(&mut pool, qp);
        }
        // Drain with nothing paused: must serve every packet exactly
        // once, FIFO within each priority.
        let mut served: Vec<(u8, u64)> = Vec::new();
        while port.start_next(&mut pool, |_| false).is_some() {
            let departed = port.finish_tx();
            served.push((departed.priority.as_u8(), departed.seq));
        }
        assert_eq!(served.len(), prios.len(), "case {case}: work conservation");
        for p in 0..8u8 {
            let per_prio: Vec<u64> = served
                .iter()
                .filter(|(pp, _)| *pp == p)
                .map(|&(_, s)| s)
                .collect();
            let mut sorted = per_prio.clone();
            sorted.sort_unstable();
            assert_eq!(per_prio, sorted, "case {case}: FIFO within priority {p}");
        }
    }
}

#[test]
fn exponential_interarrivals_are_positive_and_finite() {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0x3_0000 + case);
        let mean_us = 1 + rng.below(10_000);
        let mean = SimDuration::from_micros(mean_us);
        for _ in 0..100 {
            let d = rng.exponential(mean);
            assert!(
                d < SimDuration::from_secs(60),
                "case {case}: no absurd gaps"
            );
        }
    }
}
