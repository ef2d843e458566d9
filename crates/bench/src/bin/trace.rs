//! Flight-recorder dump tool: replays a fixed-seed hybrid scenario with
//! the recorder enabled and writes every lifecycle event as JSON Lines
//! for offline analysis, plus a causal summary of the slowest TCP flow.
//!
//! Usage:
//!   cargo run --release -p dcn-bench --bin trace              # dump TRACE_1.jsonl
//!   cargo run --release -p dcn-bench --bin trace -- --out t.jsonl

use dcn_fabric::{FabricConfig, FabricSim, PolicyChoice};
use dcn_net::{ClosConfig, Priority, Topology, TrafficClass};
use dcn_sim::{BitRate, Bytes, SimDuration, SimRng, SimTime, TraceConfig, TraceTotals};
use dcn_switch::SwitchConfig;
use dcn_workload::{web_search_cdf, PoissonTraffic};

struct TraceRun {
    totals: TraceTotals,
    recorded: usize,
    evicted: u64,
    jsonl: String,
    slowest_tcp_summary: String,
}

/// One fixed-seed hybrid run on a small Clos under L2BM with a buffer
/// small enough to exercise drops, recovery and PFC — the same shape as
/// the repo's golden-digest scenario.
fn run_traced() -> TraceRun {
    let topo = Topology::clos(&ClosConfig::small(4));
    let hosts: Vec<_> = topo.hosts().collect();
    let (rdma_hosts, tcp_hosts): (Vec<_>, Vec<_>) = hosts.iter().partition(|h| h.index() % 2 == 0);
    let mut rng = SimRng::seed_from_u64(42);
    let window = SimDuration::from_millis(2);

    let rdma = PoissonTraffic::builder(rdma_hosts.clone(), web_search_cdf())
        .load(0.4)
        .link_rate(BitRate::from_gbps(25))
        .class(TrafficClass::Lossless, Priority::new(3))
        .dests(rdma_hosts)
        .build();
    let tcp = PoissonTraffic::builder(tcp_hosts.clone(), web_search_cdf())
        .load(0.8)
        .link_rate(BitRate::from_gbps(25))
        .class(TrafficClass::Lossy, Priority::new(1))
        .dests(tcp_hosts)
        .first_flow_id(1 << 40)
        .build();

    let cfg = FabricConfig {
        policy: PolicyChoice::l2bm(),
        seed: 42,
        switch: SwitchConfig {
            total_buffer: Bytes::from_kb(96),
            ..SwitchConfig::default()
        },
        sample_interval: None,
        trace: TraceConfig::enabled(),
        ..FabricConfig::default()
    };
    let mut sim = FabricSim::new(topo, cfg);
    sim.add_flows(rdma.generate(window, &mut rng.fork(1)));
    sim.add_flows(tcp.generate(window, &mut rng.fork(2)));
    sim.run_until_done(SimTime::ZERO + window + SimDuration::from_millis(60));

    let results = sim.results();
    let slowest_tcp = results
        .fct
        .records()
        .iter()
        .filter(|r| r.class == TrafficClass::Lossy)
        .max_by(|a, b| a.slowdown().total_cmp(&b.slowdown()))
        .map(|r| r.flow.as_u64());
    let (totals, recorded, evicted, jsonl, slowest_tcp_summary) = sim
        .trace()
        .with(|rec| {
            (
                rec.totals(),
                rec.len(),
                rec.evicted(),
                rec.to_jsonl(),
                slowest_tcp
                    .map(|f| rec.summarize_flow(f))
                    .unwrap_or_else(|| "no completed TCP flows\n".into()),
            )
        })
        .expect("recorder enabled");
    TraceRun {
        totals,
        recorded,
        evicted,
        jsonl,
        slowest_tcp_summary,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("TRACE_1.jsonl");

    let run = run_traced();
    println!(
        "recorded {} events ({} evicted): {} drops ({} ingress, {} egress, {} headroom), \
         {} pauses, {} resumes, {} RTO fires",
        run.recorded,
        run.evicted,
        run.totals.drops(),
        run.totals.drops_ingress,
        run.totals.drops_egress,
        run.totals.drops_headroom,
        run.totals.pfc_pauses,
        run.totals.pfc_resumes,
        run.totals.rto_fires,
    );

    std::fs::write(out, &run.jsonl).expect("write trace dump");
    println!("wrote {} ({} lines)", out, run.jsonl.lines().count());
    println!("--- slowest TCP flow ---");
    print!("{}", run.slowest_tcp_summary);
}
