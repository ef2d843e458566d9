//! The burst deep-dive experiment (paper §IV-B): RDMA incast queries
//! (x = 1 MB striped over N servers) against TCP web-search background
//! traffic at load 0.8.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use dcn_fabric::{PolicyChoice, RunResults};
use dcn_metrics::ErrorBarStats;
use dcn_net::{Topology, TrafficClass};
use dcn_sim::{Bytes, SimDuration, SimRng};
use dcn_workload::{web_search_cdf, IncastQuery, IncastWorkload, PoissonTraffic};

use crate::hybrid::{split_hosts, tor_occupancy, RunInputs, RDMA_PRIO, TCP_PRIO};
use crate::scale::ExperimentScale;

/// One incast run's parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct IncastConfig {
    /// The scale (topology, window, seed).
    pub scale: ExperimentScale,
    /// Buffer-management policy under test.
    pub policy: PolicyChoice,
    /// Responders per query (paper: 5, 10, 15).
    pub fanout: usize,
    /// Total bytes per query (paper: 1 MB = 25% of the 4 MB buffer).
    pub request_size: Bytes,
    /// Mean inter-query gap (paper: ≈ 1.33 ms → 376 queries in 0.5 s).
    pub query_gap: SimDuration,
    /// Background TCP web-search load (paper: 0.8).
    pub tcp_load: f64,
}

impl IncastConfig {
    /// Paper §IV-B defaults at the given scale, policy and fanout. The
    /// request size is 25% of the switch buffer (1 MB of 4 MB in the
    /// paper), which keeps the burst-to-buffer pressure constant across
    /// scales. A fanout larger than the scale's RDMA half allows is
    /// clamped to that half less one (the workload needs strictly more
    /// responder candidates than `N`), so small fabrics still run the
    /// paper's degrees.
    pub fn paper_defaults(scale: ExperimentScale, policy: PolicyChoice, fanout: usize) -> Self {
        let request_size = (scale.total_buffer() / 4).max(Bytes::from_kb(100));
        IncastConfig {
            fanout: fanout.min(scale.host_count() / 2 - 1),
            scale,
            policy,
            request_size,
            query_gap: SimDuration::from_micros(1_330),
            tcp_load: 0.8,
        }
    }
}

/// Summary of one incast run.
#[derive(Debug, Clone)]
pub struct IncastPoint {
    /// Policy label.
    pub label: String,
    /// Responders per query.
    pub fanout: usize,
    /// Number of queries issued.
    pub queries: usize,
    /// 99th-percentile FCT slowdown over all incast flows (Fig. 11(a)).
    pub incast_p99_slowdown: f64,
    /// Fraction of incast flows with slowdown ≤ 10 (Fig. 10(a) headline).
    pub frac_slowdown_le_10: f64,
    /// Per-query response time = max FCT of its flows; error-bar summary
    /// in seconds (Fig. 10(b) / Fig. 11(b)).
    pub query_delay: Option<ErrorBarStats>,
    /// 99th-percentile sampled occupancy of the first ToR switch, bytes
    /// (Fig. 10(c)).
    pub tor_occupancy_p99: f64,
    /// Queries whose flows all finished.
    pub completed_queries: usize,
    /// Full results for figure-specific post-processing, shared by
    /// every copy of the point.
    pub results: Arc<RunResults>,
    /// Raw per-query response times in seconds (completed queries only).
    pub query_delays_s: Vec<f64>,
    /// Raw slowdowns of all completed incast flows, in FCT-record
    /// order.
    pub incast_slowdowns: Vec<f64>,
}

/// The inputs of one incast run, and the queries its flows make up.
pub(crate) fn incast_inputs(cfg: &IncastConfig) -> (RunInputs, Vec<IncastQuery>) {
    let topo = Topology::clos(&cfg.scale.clos);
    let (rdma_hosts, tcp_hosts, rack_of) = split_hosts(&topo, cfg.scale.clos.hosts_per_tor);
    let mut rng = SimRng::seed_from_u64(cfg.scale.seed);

    // Background TCP web-search at the configured load.
    let mut flows = Vec::new();
    if cfg.tcp_load > 0.0 {
        let tcp = PoissonTraffic::builder(tcp_hosts.clone(), web_search_cdf())
            .load(cfg.tcp_load)
            .link_rate(cfg.scale.clos.host_rate)
            .class(TrafficClass::Lossy, TCP_PRIO)
            .inter_rack(rack_of)
            .dests(tcp_hosts)
            .first_flow_id(1 << 40)
            .build();
        flows.extend(tcp.generate(cfg.scale.window, &mut rng.fork(2)));
    }

    // RDMA incast queries over the other half of the servers.
    let incast = IncastWorkload::new(rdma_hosts, cfg.fanout, cfg.request_size, cfg.query_gap)
        .class(TrafficClass::Lossless, RDMA_PRIO);
    let queries = incast.generate(cfg.scale.window, &mut rng.fork(3));
    for q in &queries {
        flows.extend(q.flows.iter().copied());
    }
    (RunInputs::new(&cfg.scale, cfg.policy, topo, flows), queries)
}

/// Runs one incast experiment point.
pub fn run_incast(cfg: &IncastConfig) -> IncastPoint {
    let (inputs, queries) = incast_inputs(cfg);
    let incast_flows: HashSet<dcn_net::FlowId> =
        queries.iter().flat_map(|q| q.flow_ids()).collect();
    let results = inputs.run();

    // Per-flow records of incast flows, in record order (the map is
    // only looked up, never iterated).
    let incast_records: Vec<&dcn_metrics::FctRecord> = results
        .fct
        .records()
        .iter()
        .filter(|r| incast_flows.contains(&r.flow))
        .collect();
    let incast_slowdowns: Vec<f64> = incast_records.iter().map(|r| r.slowdown()).collect();
    let fct_by_flow: HashMap<dcn_net::FlowId, &dcn_metrics::FctRecord> =
        incast_records.iter().map(|r| (r.flow, *r)).collect();

    // Query response time = max FCT among its flows (completed only).
    let mut query_delays_s = Vec::new();
    let mut completed_queries = 0;
    for q in &queries {
        let mut worst: Option<f64> = None;
        let mut all = true;
        for f in q.flow_ids() {
            match fct_by_flow.get(&f) {
                Some(r) => {
                    let fct = r.fct().as_secs_f64();
                    worst = Some(worst.map_or(fct, |w: f64| w.max(fct)));
                }
                None => {
                    all = false;
                    break;
                }
            }
        }
        if all {
            completed_queries += 1;
            query_delays_s.push(worst.expect("fanout >= 1"));
        }
    }

    let frac_le_10 = if incast_slowdowns.is_empty() {
        0.0
    } else {
        incast_slowdowns.iter().filter(|&&s| s <= 10.0).count() as f64
            / incast_slowdowns.len() as f64
    };

    IncastPoint {
        label: cfg.policy.label(),
        fanout: cfg.fanout,
        queries: queries.len(),
        incast_p99_slowdown: dcn_metrics::percentile(&incast_slowdowns, 0.99).unwrap_or(f64::NAN),
        frac_slowdown_le_10: frac_le_10,
        query_delay: ErrorBarStats::from_samples(&query_delays_s),
        tor_occupancy_p99: tor_occupancy(&results, 0.99),
        completed_queries,
        results: Arc::new(results),
        query_delays_s,
        incast_slowdowns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1 MB queries over 25G hosts in a tiny fabric: shrunk to keep the
    /// tests fast, with the query gap tightened so several queries land
    /// inside the 2 ms window regardless of the seed's first
    /// inter-arrival draw.
    fn tiny_cell() -> IncastConfig {
        let mut cfg =
            IncastConfig::paper_defaults(ExperimentScale::tiny(), PolicyChoice::l2bm(), 3);
        cfg.request_size = Bytes::from_kb(300);
        cfg.query_gap = SimDuration::from_micros(400);
        cfg.tcp_load = 0.4;
        cfg
    }

    #[test]
    fn tiny_incast_run_completes_queries() {
        let p = run_incast(&tiny_cell());
        assert!(p.queries > 0);
        assert!(p.completed_queries > 0);
        assert_eq!(p.results.drops.lossless_packets, 0);
        let eb = p.query_delay.expect("completed queries have stats");
        assert!(eb.mean > 0.0);
        assert!(eb.max >= eb.mean);
        assert_eq!(p.query_delays_s.len(), p.completed_queries);
    }

    #[test]
    fn incast_slowdowns_follow_record_order() {
        // Two runs of one cell in one process: a `HashMap`-ordered
        // field would come back permuted (each map has its own hasher
        // seed) at equal digests.
        let cfg = tiny_cell();
        let (a, b) = (run_incast(&cfg), run_incast(&cfg));
        assert_eq!(a.results.digest(), b.results.digest());
        assert!(a.incast_slowdowns.len() > 2, "{:?}", a.incast_slowdowns);
        assert_eq!(a.incast_slowdowns, b.incast_slowdowns);
    }

    /// The incast cell on the sharded executor, at the shard counts of
    /// `hybrid`'s fig. 7 cells, matches the serial run.
    #[test]
    fn incast_cell_digest_is_shard_invariant() {
        let cfg = tiny_cell();
        let serial = run_incast(&cfg);
        assert!(serial.completed_queries > 0, "cell carried queries");
        let (inputs, _) = incast_inputs(&cfg);
        for shards in [1, 2, 8] {
            assert_eq!(
                serial.results.digest(),
                inputs.run_sharded(shards).digest(),
                "incast cell: serial vs {shards} shards"
            );
        }
    }
}
