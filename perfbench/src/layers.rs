//! Layer drivers: for each layer, build its public object at the
//! workload's measured dimensions, push a seeded op stream through its
//! public functions and report the median ns/op of five passes.
//!
//! Count × ns/op ÷ `run_wall_s` gives a *modelled* share of a run; the
//! remainder is reported as `fabric.share.unattributed`, not hidden. It
//! is what ROADMAP item 2's in-program `LayerClock` will be checked
//! against: a layer whose in-situ cost is far above its driver's is a
//! cache or layout finding.

use std::hint::black_box;
use std::time::Instant;

use dcn_fabric::PolicyChoice;
use dcn_metrics::{FctRecord, FctSet};
use dcn_net::{FlowId, NodeId, Packet, PortId, Priority, RoutingTable, Topology, TrafficClass};
use dcn_sim::{
    BitRate, Bytes, EventQueue, FlightRecorder, SimDuration, SimRng, SimTime, SpinBarrier, Stamp,
    TraceConfig, TraceEvent,
};
use dcn_switch::{BufferPolicy, MmuState, Pool, QueueIndex, SharedMemorySwitch, SwitchConfig};
use dcn_transport::{DcqcnConfig, DcqcnSender, DctcpConfig, DctcpSender, RpTimerKind};
use dcn_workload::{web_search_cdf, PoissonTraffic};
use l2bm::{L2bmConfig, L2bmPolicy};

use crate::host::host_cores;
use crate::stats::median;

/// Timed passes per driver.
const PASSES: usize = 5;
/// Ops per pass of the per-op drivers in a benchmark run: long enough
/// (≈ 1–5 ms) that the clock reads cost nothing, short enough that all
/// drivers fit in a second or two.
pub const OPS: u64 = 40_000;

/// The measured dimensions a workload's drivers are sized to.
#[derive(Debug, Clone)]
pub struct Dims {
    pub topo: Topology,
    /// High-water mark of pending events (`QueueStats::max_pending`).
    pub max_pending: usize,
    /// Flows of (the largest cell of) the workload.
    pub flows: usize,
    pub seed: u64,
    /// Ops per timed pass ([`OPS`]; the unit tests take fewer).
    pub ops: u64,
}

impl Dims {
    /// Ports of the first ToR: the radix the switch-side drivers use.
    fn tor_ports(&self) -> usize {
        let tor = self.topo.switches().next().expect("fabric has switches");
        self.topo.node(tor).port_count()
    }
}

/// Median ns per op of [`PASSES`] passes of `ops` calls to `op`.
fn ns_per_op(ops: u64, mut op: impl FnMut(u64)) -> f64 {
    let passes: Vec<f64> = (0..PASSES)
        .map(|_| {
            let start = Instant::now();
            for i in 0..ops {
                op(i);
            }
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&passes)
}

fn q(port: usize, prio: u8) -> QueueIndex {
    QueueIndex::new(PortId::new(port as u16), Priority::new(prio))
}

/// An MMU of `ports` ports with the two priorities the workloads use
/// (3 lossless, 1 lossy) holding traffic on every port: the ToR's
/// active-queue count under hybrid load.
fn loaded_mmu(ports: usize) -> MmuState {
    let mut m = MmuState::new(
        &SwitchConfig::default(),
        vec![BitRate::from_gbps(25); ports],
    );
    for port in 0..ports {
        for prio in [1, 3] {
            let c = m.plan_charge(q(port, prio), Bytes::new(5_000), Pool::Shared);
            m.charge(q(port, prio), q((port + 1) % ports, prio), c);
        }
    }
    m
}

fn queue_drivers(dims: &Dims, out: &mut Vec<(&'static str, f64)>) {
    let mut rng = SimRng::seed_from_u64(dims.seed).fork(11);
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..dims.max_pending.max(1) as u64 {
        queue.schedule_at(SimTime::from_nanos(rng.below(1_000_000)), i);
    }
    let mut now = 1_000_000;
    out.push((
        "sim.queue.churn_ns",
        ns_per_op(dims.ops, |_| {
            let (_, e) = queue.pop().expect("depth stays constant");
            now += 1 + rng.below(2_000);
            queue.schedule_at(SimTime::from_nanos(now), e);
            black_box(e);
        }),
    ));
    // The DCTCP RTO pattern: arm a timer, cancel it before it fires.
    let mut rng = SimRng::seed_from_u64(dims.seed).fork(12);
    out.push((
        "sim.wheel.arm_cancel_ns",
        ns_per_op(dims.ops, |i| {
            let at = SimTime::from_nanos(now + 1_000 + rng.below(4_000_000));
            let handle = queue.schedule_timer_at(at, i);
            black_box(queue.cancel_timer(handle));
        }),
    ));
}

fn stamp_and_barrier_drivers(dims: &Dims, out: &mut Vec<(&'static str, f64)>) {
    let mut rng = SimRng::seed_from_u64(dims.seed).fork(13);
    // Lineages a few admissions deep, as simultaneous events at two
    // switches carry them.
    let stamps: Vec<Stamp> = (0..1_024u32)
        .map(|i| {
            let mut s = Stamp::root(rng.below(64) as u32);
            for level in 0..1 + i % 6 {
                let at = SimTime::from_nanos(u64::from(level) * 336 + rng.below(3) * 336);
                s = s.child(at, rng.below(4) as u32);
            }
            s
        })
        .collect();
    out.push((
        "sim.stamp.order_ns",
        ns_per_op(dims.ops, |i| {
            let a = &stamps[(i % 1_024) as usize];
            let b = &stamps[((i * 7 + 1) % 1_024) as usize];
            black_box(a.order(b));
        }),
    ));

    // Two threads crossing one barrier per round, as two shards do
    // twice per window. Needs a core per party to mean anything.
    let round_ns = if host_cores() < 2 {
        0.0
    } else {
        let rounds = dims.ops / 2;
        let barrier = SpinBarrier::new(2);
        let passes: Vec<f64> = (0..PASSES)
            .map(|_| {
                std::thread::scope(|scope| {
                    let peer = scope.spawn(|| {
                        for _ in 0..rounds {
                            barrier.wait();
                        }
                    });
                    let start = Instant::now();
                    for _ in 0..rounds {
                        barrier.wait();
                    }
                    let ns = start.elapsed().as_nanos() as f64 / rounds as f64;
                    peer.join().expect("barrier peer completes");
                    ns
                })
            })
            .collect();
        median(&passes)
    };
    out.push(("sim.barrier.round_ns", round_ns));
}

fn trace_driver(dims: &Dims, out: &mut Vec<(&'static str, f64)>) {
    let mut recorder = FlightRecorder::new(TraceConfig {
        enabled: true,
        capacity: 1 << 16,
        ..TraceConfig::default()
    });
    out.push((
        "sim.trace.record_ns",
        ns_per_op(dims.ops, |i| {
            recorder.record(
                SimTime::from_nanos(i * 336),
                TraceEvent::Enqueue {
                    node: (i % 16) as u32,
                    in_port: 0,
                    out_port: 1,
                    prio: 3,
                    flow: i % 256,
                    seq: i * 1_000,
                    size: 1_048,
                },
            );
        }),
    ));
    black_box(recorder.len());
}

fn net_drivers(dims: &Dims, out: &mut Vec<(&'static str, f64)>) {
    let builds: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            black_box(RoutingTable::shortest_paths(&dims.topo));
            start.elapsed().as_secs_f64()
        })
        .collect();
    out.push(("net.routing.build_s", median(&builds)));

    let routes = RoutingTable::shortest_paths(&dims.topo);
    let hosts: Vec<NodeId> = dims.topo.hosts().collect();
    let tor = dims
        .topo
        .host_uplink_switch(hosts[0])
        .expect("host has an uplink");
    let mut rng = SimRng::seed_from_u64(dims.seed).fork(14);
    out.push((
        "net.routing.next_port_ns",
        ns_per_op(dims.ops, |_| {
            let dst = hosts[rng.below(hosts.len() as u64) as usize];
            black_box(routes.next_port(tor, dst, FlowId::new(rng.next_u64())));
        }),
    ));
}

fn switch_drivers(dims: &Dims, out: &mut Vec<(&'static str, f64)>) {
    let ports = dims.tor_ports();
    let mut rng = SimRng::seed_from_u64(dims.seed).fork(15);
    let mut m = loaded_mmu(ports);
    let mut t = SimTime::ZERO;
    out.push((
        "switch.mmu.charge_discharge_ns",
        ns_per_op(dims.ops, |_| {
            let (qi, qo) = (q(rng.below(ports as u64) as usize, 3), q(1, 3));
            let charge = m.plan_charge(qi, Bytes::new(1_048), Pool::Shared);
            m.charge(qi, qo, charge);
            t += SimDuration::from_nanos(336);
            m.discharge(t, qi, qo, charge);
            black_box(m.shared_used());
        }),
    ));

    for (name, policy) in [
        ("switch.receive_tx_ns.l2bm", PolicyChoice::l2bm()),
        ("switch.receive_tx_ns.dt", PolicyChoice::dt()),
        ("switch.receive_tx_ns.abm", PolicyChoice::abm()),
        ("switch.receive_tx_ns.occamy", PolicyChoice::occamy()),
        ("switch.receive_tx_ns.bshare", PolicyChoice::bshare()),
    ] {
        let mut sw = SharedMemorySwitch::new(
            NodeId::new(0),
            SwitchConfig::default(),
            vec![BitRate::from_gbps(25); ports],
            policy.build(),
            dims.seed,
        );
        let mut t = SimTime::ZERO;
        out.push((
            name,
            ns_per_op(dims.ops, |i| {
                let in_port = PortId::new((2 + rng.below(ports as u64 - 2)) as u16);
                let lossless = i % 3 == 0;
                let pkt = Packet::data(
                    FlowId::new(i % 64),
                    NodeId::new(100),
                    NodeId::new(101),
                    Priority::new(if lossless { 3 } else { 1 }),
                    if lossless {
                        TrafficClass::Lossless
                    } else {
                        TrafficClass::Lossy
                    },
                    i * 1_000,
                    Bytes::new(1_000),
                    Bytes::new(48),
                );
                let r = sw.receive(t, pkt, in_port, PortId::new(1));
                t += SimDuration::from_nanos(400);
                if r.tx.is_some() {
                    black_box(sw.tx_complete(t, PortId::new(1)));
                }
            }),
        ));
    }
}

fn l2bm_drivers(dims: &Dims, out: &mut Vec<(&'static str, f64)>) {
    let ports = dims.tor_ports();
    let mut rng = SimRng::seed_from_u64(dims.seed).fork(16);
    let mut m = loaded_mmu(ports);
    let mut policy = L2bmPolicy::new(L2bmConfig::default());
    for port in 0..ports {
        for prio in [1, 3] {
            let (qi, qo) = (q(port, prio), q((port + 1) % ports, prio));
            policy.on_enqueue(&m, SimTime::ZERO, qi, qo, Bytes::new(5_000));
        }
    }
    let now = SimTime::from_micros(10);
    out.push((
        "l2bm.threshold_ns",
        ns_per_op(dims.ops, |_| {
            let qi = q(rng.below(ports as u64) as usize, 3);
            black_box(policy.pfc_threshold(&m, qi, now));
        }),
    ));
    let mut t = now;
    out.push((
        "l2bm.sojourn.update_ns",
        ns_per_op(dims.ops, |_| {
            let (qi, qo) = (q(rng.below(ports as u64) as usize, 3), q(1, 3));
            let size = Bytes::new(1_048);
            let charge = m.plan_charge(qi, size, Pool::Shared);
            m.charge(qi, qo, charge);
            policy.on_enqueue(&m, t, qi, qo, size);
            t += SimDuration::from_nanos(336);
            m.discharge(t, qi, qo, charge);
            policy.on_dequeue(&m, t, qi, qo, size);
            black_box(policy.weight(qi, t));
        }),
    ));
}

fn transport_drivers(dims: &Dims, out: &mut Vec<(&'static str, f64)>) {
    let mut rng = SimRng::seed_from_u64(dims.seed).fork(17);
    let (src, dst, prio) = (NodeId::new(0), NodeId::new(1), Priority::new(1));
    // A flow too long to finish inside the driver.
    let endless = Bytes::new(1 << 40);
    let cfg = DctcpConfig::default();
    let mss = cfg.mss;
    let mut sender = DctcpSender::new(cfg, FlowId::new(1), src, dst, prio, endless);
    let mut segments = Vec::new();
    sender.take_ready(SimTime::ZERO, &mut segments);
    let mut acked = 0;
    out.push((
        "transport.dctcp.on_ack_ns",
        ns_per_op(dims.ops, |i| {
            segments.clear();
            acked += mss;
            let marked = rng.below(16) == 0;
            black_box(sender.on_ack(SimTime::from_nanos(i * 336), acked, marked, &mut segments));
        }),
    ));
    // Flow start: a new sender emits its initial window.
    let initial_window = DctcpConfig::default().init_cwnd_segments as f64;
    out.push((
        "transport.dctcp.emit_ns",
        ns_per_op(dims.ops / 8, |i| {
            segments.clear();
            let mut s = DctcpSender::new(cfg, FlowId::new(i), src, dst, prio, endless);
            s.take_ready(SimTime::ZERO, &mut segments);
            black_box(segments.len());
        }) / initial_window,
    ));

    let rdma_prio = Priority::new(3);
    let mut rdma = DcqcnSender::new(
        DcqcnConfig::default(),
        FlowId::new(2),
        src,
        dst,
        rdma_prio,
        endless,
        BitRate::from_gbps(25),
    );
    out.push((
        "transport.dcqcn.emit_ns",
        ns_per_op(dims.ops, |i| {
            black_box(rdma.emit_next(SimTime::from_nanos(i * 336)));
        }),
    ));
    // One congestion episode: a CNP cut, then the α and rate timers.
    out.push((
        "transport.dcqcn.timer_ns",
        ns_per_op(dims.ops, |i| {
            if i % 8 == 0 {
                black_box(rdma.on_cnp(SimTime::from_nanos(i * 336)));
            }
            let kind = if i % 2 == 0 {
                RpTimerKind::Alpha
            } else {
                RpTimerKind::Rate
            };
            black_box(rdma.on_timer(kind));
        }),
    ));
}

fn workload_and_metrics_drivers(dims: &Dims, out: &mut Vec<(&'static str, f64)>) {
    let hosts: Vec<NodeId> = dims.topo.hosts().collect();
    let traffic = PoissonTraffic::builder(hosts, web_search_cdf())
        .load(0.8)
        .class(TrafficClass::Lossy, Priority::new(1))
        .build();
    // A window that yields about four thousand flows on any fabric.
    let window = traffic.mean_interarrival().saturating_mul(4_000);
    let passes: Vec<f64> = (0..PASSES as u64)
        .map(|pass| {
            let mut rng = SimRng::seed_from_u64(dims.seed).fork(18 + pass);
            let start = Instant::now();
            let flows = black_box(traffic.generate(window, &mut rng));
            start.elapsed().as_nanos() as f64 / flows.len().max(1) as f64
        })
        .collect();
    out.push(("workload.poisson.ns_per_flow", median(&passes)));

    let mut rng = SimRng::seed_from_u64(dims.seed).fork(30);
    let records = dims.flows.max(1_000);
    let mut set = FctSet::new();
    for i in 0..records as u64 {
        let ideal = SimDuration::from_nanos(1_000 + rng.below(1_000_000));
        set.push(FctRecord {
            flow: FlowId::new(i),
            class: if i % 3 == 0 {
                TrafficClass::Lossless
            } else {
                TrafficClass::Lossy
            },
            size: Bytes::new(1_000 + rng.below(1_000_000)),
            start: SimTime::ZERO,
            finish: SimTime::ZERO + ideal.saturating_mul(1 + rng.below(20)),
            ideal,
        });
    }
    out.push((
        "metrics.fct.percentile_ns_per_record",
        ns_per_op(8, |_| {
            black_box(set.slowdown_percentile(TrafficClass::Lossy, 0.99));
        }) / records as f64,
    ));
}

/// Runs every driver; returns `(metric name, value)` pairs.
pub fn run(dims: &Dims) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    queue_drivers(dims, &mut out);
    stamp_and_barrier_drivers(dims, &mut out);
    trace_driver(dims, &mut out);
    net_drivers(dims, &mut out);
    switch_drivers(dims, &mut out);
    l2bm_drivers(dims, &mut out);
    transport_drivers(dims, &mut out);
    workload_and_metrics_drivers(dims, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::layer_unit;
    use crate::workloads::Fabric;

    #[test]
    fn every_driver_reports_a_registered_positive_cost() {
        let dims = Dims {
            topo: Fabric::ClosTiny.topology(),
            max_pending: 64,
            flows: 10,
            seed: 7,
            ops: 2_000,
        };
        let out = run(&dims);
        assert_eq!(out.len(), 21);
        for (name, value) in out {
            let unit = layer_unit(name).unwrap_or_else(|| panic!("{name} is not registered"));
            assert!(unit == "ns" || unit == "s", "{name} has unit {unit}");
            let idle_barrier = name == "sim.barrier.round_ns" && host_cores() < 2;
            assert!(value > 0.0 || idle_barrier, "{name} = {value}");
            assert!(value.is_finite());
        }
    }
}
