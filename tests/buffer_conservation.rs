//! Buffer-conservation property battery: a full [`SharedMemorySwitch`]
//! under seeded random hybrid traffic must keep the MMU's aggregate
//! counters equal to the per-queue sums after *every* charge and
//! discharge — for all six arena policies, including Occamy whose
//! preemptive evictions interleave a discharge inside the admission of
//! another packet.
//!
//! 6 policies × 16 seeded cases; each failure message carries the
//! policy and case seed for replay.

use dcn_experiments::all_policies;
use dcn_fabric::PolicyChoice;
use dcn_net::{FlowId, NodeId, Packet, PortId, Priority, TrafficClass};
use dcn_sim::{BitRate, Bytes, SimDuration, SimRng, SimTime};
use dcn_switch::{BufferPolicy, QueueIndex, SharedMemorySwitch, SwitchConfig};

const N_PORTS: u16 = 4;
const CASES_PER_POLICY: u64 = 16;

fn random_packet(rng: &mut SimRng, seq: u64) -> Packet {
    let lossless = rng.below(2) == 0;
    let (class, prio, flow) = if lossless {
        (TrafficClass::Lossless, Priority::new(3), FlowId::new(1))
    } else {
        (TrafficClass::Lossy, Priority::new(1), FlowId::new(2))
    };
    Packet::data(
        flow,
        NodeId::new(100),
        NodeId::new(101),
        prio,
        class,
        seq,
        Bytes::new(64 + rng.below(1_436)),
        Bytes::new(48),
    )
}

/// Σ per-queue bytes must equal the MMU's pool aggregates (shared pool
/// occupancy plus headroom accounting), and the built-in
/// conservation check must pass.
fn assert_conserved(sw: &SharedMemorySwitch, what: &str) {
    let mmu = sw.mmu();
    let mut sum_shared = Bytes::ZERO;
    let mut sum_headroom = Bytes::ZERO;
    let mut sum_total = Bytes::ZERO;
    for port in 0..N_PORTS {
        for prio in Priority::all() {
            let q = QueueIndex::new(PortId::new(port), prio);
            sum_shared += mmu.ingress_shared(q);
            sum_headroom += mmu.ingress_headroom(q);
            sum_total += mmu.ingress_total(q);
        }
    }
    assert_eq!(
        sum_shared,
        mmu.shared_used(),
        "{what}: Σ per-queue shared bytes != shared-pool occupancy"
    );
    assert_eq!(
        sum_headroom,
        mmu.headroom_used(),
        "{what}: Σ per-queue headroom != headroom accounting"
    );
    assert_eq!(
        sum_total,
        mmu.total_stored(),
        "{what}: Σ per-queue total != total stored"
    );
    mmu.check_conservation()
        .unwrap_or_else(|e| panic!("{what}: {e}"));
}

fn run_case(label: &str, policy: Box<dyn BufferPolicy>, seed: u64) {
    let cfg = SwitchConfig {
        // Small enough that random traffic crosses thresholds, uses
        // headroom, drops lossy packets and pauses lossless queues.
        total_buffer: Bytes::new(12_000),
        headroom_per_queue: Bytes::new(6_000),
        ..SwitchConfig::default()
    };
    let mut sw = SharedMemorySwitch::new(
        NodeId::new(0),
        cfg,
        vec![BitRate::from_gbps(25); N_PORTS as usize],
        policy,
        seed,
    );
    let mut rng = SimRng::seed_from_u64(seed ^ 0xC0FF_EE00);
    let mut busy: Vec<PortId> = Vec::new();
    let mut t = SimTime::ZERO;
    let what = |i: usize| format!("{label} seed {seed} op {i}");

    for i in 0..300usize {
        t += SimDuration::from_nanos(20 + rng.below(500));
        let drain = !busy.is_empty() && rng.below(10) < 4;
        if drain {
            let port = busy.swap_remove(rng.below(busy.len() as u64) as usize);
            let done = sw.tx_complete(t, port);
            if done.next.is_some() {
                busy.push(port);
            }
        } else {
            let in_port = PortId::new(rng.below(N_PORTS as u64) as u16);
            let out_port = PortId::new(rng.below(N_PORTS as u64) as u16);
            let r = sw.receive(t, random_packet(&mut rng, i as u64), in_port, out_port);
            if r.tx.is_some() {
                busy.push(out_port);
            }
        }
        assert_conserved(&sw, &what(i));
    }

    // Drain to empty: conservation must hold at every departure and the
    // switch must end with zero bytes stored.
    let mut i = 300usize;
    while let Some(port) = busy.pop() {
        t += SimDuration::from_nanos(400);
        let done = sw.tx_complete(t, port);
        if done.next.is_some() {
            busy.push(port);
        }
        assert_conserved(&sw, &what(i));
        i += 1;
    }
    assert_eq!(
        sw.occupancy(),
        Bytes::ZERO,
        "{label} seed {seed}: switch fully drained"
    );
}

#[test]
fn conservation_holds_for_all_policies_under_random_traffic() {
    for choice in all_policies() {
        for case in 0..CASES_PER_POLICY {
            run_case(&choice.label(), choice.build(), 0x5EED_0000 + case);
        }
    }
}

#[test]
fn conservation_holds_across_evict_then_admit_sequences() {
    // Directed at the eviction path: queue a lossy backlog behind one
    // egress port, then push lossless arrivals until Occamy evicts to
    // admit them. Conservation is asserted after every receive (which
    // may internally discharge a victim and charge the newcomer in one
    // step), and the run must actually exercise evictions.
    let cfg = SwitchConfig {
        total_buffer: Bytes::new(12_000),
        headroom_per_queue: Bytes::new(6_000),
        ..SwitchConfig::default()
    };
    let mut sw = SharedMemorySwitch::new(
        NodeId::new(0),
        cfg,
        vec![BitRate::from_gbps(25); N_PORTS as usize],
        PolicyChoice::occamy().build(),
        7,
    );
    let mut t = SimTime::ZERO;
    let lossy = |seq: u64| {
        Packet::data(
            FlowId::new(2),
            NodeId::new(100),
            NodeId::new(101),
            Priority::new(1),
            TrafficClass::Lossy,
            seq,
            Bytes::new(1_200),
            Bytes::new(48),
        )
    };
    let lossless = |seq: u64| {
        Packet::data(
            FlowId::new(1),
            NodeId::new(100),
            NodeId::new(101),
            Priority::new(3),
            TrafficClass::Lossless,
            seq,
            Bytes::new(1_200),
            Bytes::new(48),
        )
    };
    // Build the lossy backlog on egress port 1 from ingress 0.
    for seq in 0..8 {
        t += SimDuration::from_nanos(50);
        sw.receive(t, lossy(seq), PortId::new(0), PortId::new(1));
        assert_conserved(&sw, &format!("lossy backlog seq {seq}"));
    }
    // Lossless pressure from another ingress port: the early arrivals
    // fit the shared pool or headroom; the later ones force evictions
    // of the queued lossy backlog (the lossy packet already serializing
    // cannot be recalled, which bounds how far this can go).
    for seq in 0..7 {
        t += SimDuration::from_nanos(50);
        sw.receive(t, lossless(seq), PortId::new(2), PortId::new(3));
        assert_conserved(&sw, &format!("lossless arrival seq {seq}"));
    }
    assert!(
        sw.drop_counters().evicted_packets > 0,
        "the sequence must exercise the eviction path"
    );
    assert_eq!(
        sw.drop_counters().lossless_packets,
        0,
        "evictions shield the lossless class"
    );
    // Drain the two transmitting egress ports; conservation at every
    // departure, empty at the end.
    for port in [1u16, 3] {
        let mut i = 0;
        loop {
            t += SimDuration::from_nanos(400);
            let done = sw.tx_complete(t, PortId::new(port));
            assert_conserved(&sw, &format!("drain port {port} step {i}"));
            i += 1;
            if done.next.is_none() {
                break;
            }
        }
    }
    assert_eq!(sw.occupancy(), Bytes::ZERO, "switch fully drained");
}
