//! Micro-benchmarks of the simulator's hot paths at realistic switch
//! radix: 36 ports × 8 priorities with hundreds of active queues — the
//! regime where per-packet full scans actually hurt.

use std::hint::black_box;

use dcn_bench::bench;
use dcn_net::{
    ClosConfig, FatTreeConfig, FlowId, NodeId, Packet, PortId, Priority, RoutingTable, Topology,
    TrafficClass,
};
use dcn_sim::{BitRate, Bytes, EventQueue, SimTime};
use dcn_switch::{
    AbmPolicy, BufferPolicy, Charge, DtPolicy, EgressPort, MmuState, Pool, QueueIndex,
    QueuedPacket, SharedMemorySwitch, SwitchConfig, TxStart,
};
use l2bm::{L2bmConfig, L2bmPolicy};

const PORTS: usize = 36;

fn q(port: u16, prio: u8) -> QueueIndex {
    QueueIndex::new(PortId::new(port), Priority::new(prio))
}

/// One step of Knuth's 64-bit LCG: cheap in-loop randomness for op
/// streams (use the high bits).
fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

/// A 36-port MMU with every (port, priority) ingress queue holding
/// traffic: 36 × 8 = 288 active queues.
fn loaded_mmu() -> MmuState {
    let mut m = MmuState::new(
        &SwitchConfig::default(),
        vec![BitRate::from_gbps(25); PORTS],
    );
    for port in 0..PORTS as u16 {
        for prio in 0..Priority::COUNT as u8 {
            let c = m.plan_charge(q(port, prio), Bytes::new(20_000), Pool::Shared);
            m.charge(q(port, prio), q((port + 1) % PORTS as u16, prio), c);
        }
    }
    m
}

/// L2BM policy with sojourn state for all 288 queues of `m`.
fn loaded_l2bm(m: &mut MmuState, now: SimTime) -> L2bmPolicy {
    let mut policy = L2bmPolicy::new(L2bmConfig::default());
    for port in 0..PORTS as u16 {
        for prio in 0..Priority::COUNT as u8 {
            let qi = q(port, prio);
            let qo = q((port + 1) % PORTS as u16, prio);
            let charge = m.plan_charge(qi, Bytes::new(5_000), Pool::Shared);
            m.charge(qi, qo, charge);
            policy.on_enqueue(m, now, qi, qo, Bytes::new(5_000));
        }
    }
    policy
}

fn bench_mmu() {
    let mut m = loaded_mmu();
    let mut t = SimTime::ZERO;
    bench("mmu/charge_discharge_cycle", || {
        let charge = m.plan_charge(q(9, 3), Bytes::new(1_048), Pool::Shared);
        m.charge(q(9, 3), q(1, 3), charge);
        t += dcn_sim::SimDuration::from_nanos(336);
        m.discharge(t, q(9, 3), q(1, 3), charge);
        black_box(m.shared_used())
    });
}

fn bench_policies() {
    let m = loaded_mmu();
    let now = SimTime::from_micros(10);
    let dt = DtPolicy::new(0.125);
    bench("policy_threshold/dt_288q", || {
        black_box(dt.pfc_threshold(&m, q(0, 3), now))
    });
    // ABM fed through its hooks, so all 288 queues count as congested
    // and the drain table is sized.
    let mut m_abm = MmuState::new(
        &SwitchConfig::default(),
        vec![BitRate::from_gbps(25); PORTS],
    );
    let mut abm = AbmPolicy::new(0.5);
    for port in 0..PORTS as u16 {
        for prio in 0..Priority::COUNT as u8 {
            let (qi, qo) = (q(port, prio), q((port + 1) % PORTS as u16, prio));
            let c = m_abm.plan_charge(qi, Bytes::new(20_000), Pool::Shared);
            m_abm.charge(qi, qo, c);
            abm.on_enqueue(&m_abm, SimTime::ZERO, qi, qo, c.total());
        }
    }
    bench("policy_threshold/abm_288q", || {
        black_box(abm.pfc_threshold(&m_abm, q(0, 3), now))
    });
    // L2BM with all 288 queues holding sojourn state (the realistic
    // loaded case for the incremental Σ τ aggregate).
    let mut m2 = loaded_mmu();
    let l2bm_policy = loaded_l2bm(&mut m2, now);
    bench("policy_threshold/l2bm_288q", || {
        black_box(l2bm_policy.pfc_threshold(&m2, q(0, 3), now))
    });
}

/// The tentpole number: incremental vs naive `Σ τ` at 288 active
/// queues. The incremental aggregate must be ≥ 5× faster.
fn bench_sum_active_tau() {
    let now = SimTime::from_micros(10);
    let mut m = loaded_mmu();
    let policy = loaded_l2bm(&mut m, now);
    let sojourn = policy.sojourn();
    let inc = bench("sojourn/sum_active_tau_288q_incremental", || {
        black_box(sojourn.sum_active_tau(now))
    });
    let naive = bench("sojourn/sum_active_tau_288q_naive_scan", || {
        black_box(sojourn.sum_active_tau_naive(now))
    });
    let speedup = naive.ns_per_iter / inc.ns_per_iter;
    println!("sojourn/sum_active_tau_288q speedup: {speedup:.1}x (incremental over naive scan)");
}

fn bench_sojourn() {
    let mut m = loaded_mmu();
    let mut policy = loaded_l2bm(&mut m, SimTime::ZERO);
    let mut t = SimTime::ZERO;
    bench("sojourn/enqueue_dequeue_update_288q", || {
        let charge = m.plan_charge(q(9, 3), Bytes::new(1_048), Pool::Shared);
        m.charge(q(9, 3), q(1, 3), charge);
        policy.on_enqueue(&m, t, q(9, 3), q(1, 3), Bytes::new(1_048));
        t += dcn_sim::SimDuration::from_nanos(336);
        m.discharge(t, q(9, 3), q(1, 3), charge);
        policy.on_dequeue(&m, t, q(9, 3), q(1, 3), Bytes::new(1_048));
        black_box(policy.weight(q(9, 3), t))
    });

    // Congested variant: egress (1,3) carries a ~1 MB backlog fed from
    // many ingress queues, so every record's zero crossing lies hundreds
    // of microseconds ahead of the 336 ns packet clock — the regime in
    // which per-packet expiry-heap entries outlive thousands of packets.
    let mut m = loaded_mmu();
    let mut policy = loaded_l2bm(&mut m, SimTime::ZERO);
    for port in 2..PORTS as u16 {
        let charge = m.plan_charge(q(port, 3), Bytes::new(30_000), Pool::Shared);
        m.charge(q(port, 3), q(1, 3), charge);
        policy.on_enqueue(&m, SimTime::ZERO, q(port, 3), q(1, 3), Bytes::new(30_000));
    }
    let mut t = SimTime::ZERO;
    let mut draw = 1u64;
    bench("sojourn/enqueue_dequeue_update_288q_congested", || {
        // Arrivals pick their ingress port at random, as traffic does.
        draw = lcg(draw);
        let port = 2 + ((draw >> 33) % (PORTS as u64 - 2)) as u16;
        let charge = m.plan_charge(q(port, 3), Bytes::new(1_048), Pool::Shared);
        m.charge(q(port, 3), q(1, 3), charge);
        policy.on_enqueue(&m, t, q(port, 3), q(1, 3), Bytes::new(1_048));
        t += dcn_sim::SimDuration::from_nanos(336);
        m.discharge(t, q(port, 3), q(1, 3), charge);
        policy.on_dequeue(&m, t, q(port, 3), q(1, 3), Bytes::new(1_048));
        black_box(policy.weight(q(port, 3), t))
    });
}

fn bench_event_queue() {
    // Everything scheduled before the first pop is filed in the timing
    // wheel: this is the set-up path (flow starts, samplers), then a
    // drain through the wheel's due stage.
    bench("event_queue/bulk_load_pop_1k", || {
        let mut queue: EventQueue<u64> = EventQueue::new();
        for i in 0..1_000u64 {
            queue.schedule_at(SimTime::from_nanos((i * 7919) % 10_000), i);
        }
        let mut acc = 0u64;
        while let Some((_, e)) = queue.pop() {
            acc = acc.wrapping_add(e);
        }
        black_box(acc)
    });

    // Hold-model churn at the depths the benchmark workloads run at
    // (~1.1k pending on the 128-host Clos, ~12k on the k=16 fat-tree):
    // pop the earliest event, schedule it again a pseudo-random delay
    // ahead. Delays of 1–2 000 ns are the calendar path (a link
    // serialization plus propagation); delays up to 20 µs send ~60 % of
    // the events past the calendar's 8 192 ns horizon into the wheel.
    for (name, depth, max_delay) in [
        ("event_queue/churn_1k_near_2us", 1_024u64, 2_000u64),
        ("event_queue/churn_1k_mixed_20us", 1_024, 20_000),
        ("event_queue/churn_12k_mixed_20us", 12 * 1_024, 20_000),
    ] {
        let mut queue: EventQueue<u64> = EventQueue::new();
        queue.schedule_at(SimTime::ZERO, 0);
        queue.pop();
        for i in 0..depth {
            queue.schedule_at(SimTime::from_nanos((i * 7919) % max_delay), i);
        }
        bench(name, || {
            let (now, e) = queue.pop().expect("depth stays constant");
            let next = lcg(e);
            let delay = dcn_sim::SimDuration::from_nanos(1 + (next >> 33) % max_delay);
            queue.schedule_at(now + delay, next);
            black_box(e)
        });
    }

    // Steady-state churn at paper-scale pending depth (~128k events, the
    // high-water mark of a 128-host hybrid run): pop one, schedule one
    // 997 ns after the last. The newest event lies ~130 ms ahead, so
    // this is the far path: wheel arm, level-1 staging, due pop. The
    // reference is the engine before the indexed-heap rewrite —
    // `BinaryHeap` over (time, seq, payload) triples, i.e. the sift path
    // moves the whole event.
    const DEPTH: u64 = 128 * 1024;
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..DEPTH {
        queue.schedule_at(SimTime::from_nanos((i * 7919) % 1_000_000), i);
    }
    let mut t = 1_000_000u64;
    bench("event_queue/churn_128k_far", || {
        let (_, e) = queue.pop().expect("depth stays constant");
        t += 997;
        queue.schedule_at(SimTime::from_nanos(t), e);
        black_box(e)
    });

    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut reference: BinaryHeap<Reverse<(SimTime, u64, [u64; 12])>> = BinaryHeap::new();
    for i in 0..DEPTH {
        reference.push(Reverse((
            SimTime::from_nanos((i * 7919) % 1_000_000),
            i,
            [i; 12],
        )));
    }
    let mut t = 1_000_000u64;
    let mut seq = DEPTH;
    bench("event_queue/churn_128k_reference_binheap", || {
        let Reverse((_, _, payload)) = reference.pop().expect("depth stays constant");
        t += 997;
        seq += 1;
        reference.push(Reverse((SimTime::from_nanos(t), seq, payload)));
        black_box(payload[0])
    });
}

fn bench_flow_table() {
    use dcn_fabric::FlowTable;
    use std::collections::HashMap;

    // Two generator banks, like the hybrid experiment: RDMA ids from 0,
    // TCP background from 1 << 40.
    const PER_BANK: u64 = 4_096;
    let mut table = FlowTable::new();
    let mut map: HashMap<FlowId, usize> = HashMap::new();
    for i in 0..PER_BANK {
        table.insert(FlowId::new(i), i as usize);
        map.insert(FlowId::new(i), i as usize);
        table.insert(FlowId::new((1 << 40) + i), (PER_BANK + i) as usize);
        map.insert(FlowId::new((1 << 40) + i), (PER_BANK + i) as usize);
    }
    let mut i = 0u64;
    bench("flow_table/banked_lookup", || {
        i = (i + 1) % PER_BANK;
        let id = FlowId::new((1 << 40) + i);
        black_box(table.get(black_box(id)).expect("registered"))
    });
    let mut i = 0u64;
    bench("flow_table/hashmap_lookup", || {
        i = (i + 1) % PER_BANK;
        let id = FlowId::new((1 << 40) + i);
        black_box(*map.get(&black_box(id)).expect("registered"))
    });
}

fn bench_routing() {
    let topo = Topology::clos(&ClosConfig::paper());
    let routes = RoutingTable::shortest_paths(&topo);
    let hosts: Vec<NodeId> = topo.hosts().collect();
    let tor = topo.host_uplink_switch(hosts[0]).expect("host has uplink");
    let mut i = 0u64;
    bench("routing/ecmp_next_port", || {
        i += 1;
        black_box(routes.next_port(tor, hosts[64], FlowId::new(i)))
    });
    bench("routing/build_paper_clos_tables", || {
        black_box(RoutingTable::shortest_paths(&topo))
    });

    // The one-ToR bench above reads one cache-resident row. A fat-tree
    // run asks every switch about every destination: draw a random
    // (switch, dst, flow) per call so the table's footprint shows.
    let topo = Topology::fat_tree(&FatTreeConfig::new(16));
    let routes = RoutingTable::shortest_paths(&topo);
    let hosts: Vec<NodeId> = topo.hosts().collect();
    let switches: Vec<NodeId> = topo.switches().collect();
    let mut x = 7u64;
    bench("routing/ecmp_next_port_fattree_k16", || {
        x = lcg(x);
        let sw = switches[(x >> 33) as usize % switches.len()];
        let dst = hosts[(x >> 13) as usize % hosts.len()];
        black_box(routes.next_port(sw, dst, FlowId::new(x)))
    });
    bench("routing/build_fattree_k16_tables", || {
        black_box(RoutingTable::shortest_paths(&topo))
    });
    bench("topology/build_fattree_k16", || {
        black_box(Topology::fat_tree(&FatTreeConfig::new(16)))
    });
}

fn bench_switch_cycle() {
    let mut sw = SharedMemorySwitch::new(
        NodeId::new(0),
        SwitchConfig::default(),
        vec![BitRate::from_gbps(25); PORTS],
        Box::new(L2bmPolicy::new(L2bmConfig::default())),
        7,
    );
    let mut t = SimTime::ZERO;
    let mut seq = 0u64;
    bench("switch/receive_tx_complete_cycle", || {
        let pkt = Packet::data(
            FlowId::new(1),
            NodeId::new(100),
            NodeId::new(101),
            Priority::new(3),
            TrafficClass::Lossless,
            seq,
            Bytes::new(1_000),
            Bytes::new(48),
        );
        seq += 1_000;
        let r = sw.receive(t, pkt, PortId::new(0), PortId::new(1));
        t += dcn_sim::SimDuration::from_nanos(400);
        if r.tx.is_some() {
            black_box(sw.tx_complete(t, PortId::new(1)));
        }
    });
}

/// A queue entry as a host NIC files it.
fn queued(seq: u64) -> QueuedPacket {
    QueuedPacket {
        packet: Packet::data(
            FlowId::new(1),
            NodeId::new(100),
            NodeId::new(101),
            Priority::new(3),
            TrafficClass::Lossless,
            seq,
            Bytes::new(1_000),
            Bytes::new(48),
        ),
        in_port: PortId::new(0),
        charge: Charge::NONE,
    }
}

/// What a queued packet's bytes are moved through, with no switch logic
/// around it: FIFO slot → `TxStart` → `Event::Deliver` in the event
/// queue's slab → the handler's stack.
fn bench_queue() {
    use dcn_fabric::Event;
    let rate = BitRate::from_gbps(25);
    let mut port = EgressPort::new();
    let mut events: EventQueue<Event> = EventQueue::new();
    // The slab at the depth a 128-host run keeps pending.
    for i in 0..1_024u64 {
        let e = Event::Deliver {
            node: NodeId::new(1),
            in_port: PortId::new(0),
            packet: queued(i).packet,
        };
        events.schedule_at(SimTime::from_nanos(i * 336), e);
    }
    let mut seq = 0u64;
    bench("queue/enqueue_start_next_through_slab", || {
        seq += 1_000;
        port.enqueue(queued(seq));
        let packet = port.start_next(|_| false).expect("idle port, one packet");
        port.finish_tx();
        let tx = TxStart {
            port: PortId::new(1),
            packet,
            serialize: rate.tx_time(packet.size()),
        };
        let (now, _) = events.pop().expect("depth stays constant");
        let at = now + tx.serialize + dcn_sim::SimDuration::from_micros(350);
        let deliver = Event::Deliver {
            node: NodeId::new(1),
            in_port: tx.port,
            packet: tx.packet,
        };
        events.schedule_at(at, deliver);
        black_box(now)
    });

    // One iteration = 2 048 packets through one FIFO, which crosses the
    // release bound: the drained queue gives its buffer back and the next
    // burst grows a new one. Divide by 2 048 for the per-packet cost.
    let mut port = EgressPort::new();
    bench("queue/burst_2k_fill_drain_cycle", || {
        for seq in 0..2_048u64 {
            port.enqueue(queued(seq));
        }
        let mut last = 0;
        while let Some(packet) = port.start_next(|_| false) {
            last = packet.seq;
            port.finish_tx();
        }
        black_box(last)
    });
}

fn main() {
    bench_mmu();
    bench_policies();
    bench_sum_active_tau();
    bench_sojourn();
    bench_event_queue();
    bench_flow_table();
    bench_routing();
    bench_switch_cycle();
    bench_queue();
}
