//! The lossless-vs-lossy universe comparison: the same hybrid workload
//! carried by DCQCN (lossless RDMA over PFC — the paper's universe) and
//! by IRN (lossy RDMA with NACK/go-back-N retransmission, no PFC).
//!
//! Two sweeps live here:
//!
//! * [`irn_grid`] — the resilience *grid*: every arena policy × both
//!   transports on the healthy fig. 7 hybrid mix, answering whether
//!   L2BM's buffer-management lead survives once RDMA stops needing
//!   PFC at all.
//! * [`irn_resilience`] — the fault *comparison*: identical sampled
//!   fault schedules (the chaos generator's link flaps, corruption
//!   windows and stuck pauses) run in both universes side by side,
//!   counting the flows each universe fails to deliver. DCQCN has no
//!   retransmission, so a single lossless wire loss strands the flow
//!   forever; IRN repairs it and finishes. "Rescued" flows are those
//!   unfinished under DCQCN but completed by IRN on the same schedule.
//!
//! Every cell runs with the flight recorder on and asserts a battery:
//! counter/trace reconciliation, zero stranded DCQCN senders, zero
//! orphan retransmissions (each one causally preceded by a same-flow
//! NACK at or below its sequence, or by an RTO), and per-universe
//! completion guarantees. Violations collect as strings, never panics.

use std::collections::HashSet;

use dcn_fabric::{FabricConfig, FabricSim, PolicyChoice, RdmaTransport};
use dcn_net::{Topology, TrafficClass};
use dcn_sim::{par_map, FaultSchedule, SimRng, SimTime, TraceConfig, TraceEvent};
use dcn_workload::{web_search_cdf, FlowSpec, PoissonTraffic};

use crate::chaos::{sample_fault_schedule, CHAOS_WATCHDOG};
use crate::hybrid::{split_hosts, RDMA_PRIO, TCP_PRIO};
use crate::report::{fmt_f64, Table};
use crate::scale::ExperimentScale;

/// One cell of the universe comparison.
#[derive(Debug, Clone)]
pub struct IrnCellConfig {
    /// The scale (topology, window, workload seed).
    pub scale: ExperimentScale,
    /// Buffer-management policy under test.
    pub policy: PolicyChoice,
    /// Which universe carries the RDMA half.
    pub transport: RdmaTransport,
    /// Seed the fault schedule is sampled from; `None` injects nothing.
    pub fault_seed: Option<u64>,
    /// Load of the RDMA half (fig. 7 hybrid mix).
    pub rdma_load: f64,
    /// Load of the TCP half.
    pub tcp_load: f64,
}

impl IrnCellConfig {
    /// The standard cell: fig. 7 hybrid mix at RDMA 0.4 / TCP 0.4.
    pub fn new(
        scale: ExperimentScale,
        policy: PolicyChoice,
        transport: RdmaTransport,
        fault_seed: Option<u64>,
    ) -> Self {
        IrnCellConfig {
            scale,
            policy,
            transport,
            fault_seed,
            rdma_load: 0.4,
            tcp_load: 0.4,
        }
    }
}

/// Everything one universe cell reports. Plain data (`Send`): the trace
/// is interrogated inside the worker, never shipped across threads.
#[derive(Debug, Clone)]
pub struct IrnPoint {
    /// Policy label (DT / DT2 / ABM / L2BM / Occamy / BShare).
    pub label: String,
    /// Universe label (DCQCN / IRN).
    pub transport: &'static str,
    /// The fault seed (`None` = zero-fault baseline).
    pub fault_seed: Option<u64>,
    /// Full-run digest (compared across `--jobs` values).
    pub digest: u64,
    /// Registered flows.
    pub total_flows: usize,
    /// Flows completed before the deadline.
    pub completed: usize,
    /// Flow ids (raw `u64`) unfinished at the deadline.
    pub unfinished_ids: Vec<u64>,
    /// Flows that lost a lossless-class packet (DCQCN universe only —
    /// no retransmission exists for them).
    pub victims: usize,
    /// Liveness-watchdog stall episodes.
    pub stalls: u64,
    /// PFC pause frames emitted (must stay 0 in the IRN universe).
    pub pause_frames: u64,
    /// Lossless packets dropped (DCQCN universe victims).
    pub lossless_drops: u64,
    /// Lossy-RDMA packets dropped (IRN universe losses).
    pub lossy_rdma_drops: u64,
    /// IRN NACKs (switch- plus receiver-generated).
    pub nacks: u64,
    /// IRN packets retransmitted.
    pub retransmits: u64,
    /// IRN retransmission timeouts fired.
    pub rto_fires: u64,
    /// p99 FCT slowdown of the RDMA half.
    pub rdma_p99_slowdown: f64,
    /// p99 FCT slowdown of the TCP half.
    pub tcp_p99_slowdown: f64,
    /// Delivered goodput over the traffic window, Gbit/s.
    pub goodput_gbps: f64,
    /// Invariant violations (empty = the battery passed).
    pub violations: Vec<String>,
}

/// Runs one universe cell and asserts its battery.
pub fn run_irn_cell(cfg: &IrnCellConfig) -> IrnPoint {
    let topo = Topology::clos(&cfg.scale.clos);
    let (rdma_hosts, tcp_hosts, _) = split_hosts(&topo, cfg.scale.clos.hosts_per_tor);
    let mut rng = SimRng::seed_from_u64(cfg.scale.seed);

    let mut flows: Vec<FlowSpec> = Vec::new();
    if cfg.rdma_load > 0.0 {
        let rdma = PoissonTraffic::builder(rdma_hosts.clone(), web_search_cdf())
            .load(cfg.rdma_load)
            .link_rate(cfg.scale.clos.host_rate)
            .class(TrafficClass::Lossless, RDMA_PRIO)
            .dests(rdma_hosts)
            .build();
        flows.extend(rdma.generate(cfg.scale.window, &mut rng.fork(1)));
    }
    if cfg.tcp_load > 0.0 {
        let tcp = PoissonTraffic::builder(tcp_hosts.clone(), web_search_cdf())
            .load(cfg.tcp_load)
            .link_rate(cfg.scale.clos.host_rate)
            .class(TrafficClass::Lossy, TCP_PRIO)
            .dests(tcp_hosts)
            .first_flow_id(1 << 40)
            .build();
        flows.extend(tcp.generate(cfg.scale.window, &mut rng.fork(2)));
    }

    let faults = match cfg.fault_seed {
        Some(seed) => sample_fault_schedule(&topo, cfg.scale.window, seed),
        None => FaultSchedule::none(),
    };

    let mut switch = cfg.scale.switch_config();
    switch.pfc_watchdog = Some(CHAOS_WATCHDOG);
    let fabric_cfg = FabricConfig {
        policy: cfg.policy,
        rdma_transport: cfg.transport,
        seed: cfg.scale.seed,
        switch,
        flow_watchdog: Some(CHAOS_WATCHDOG),
        sample_interval: None,
        trace: TraceConfig::enabled(),
        faults,
        ..FabricConfig::default()
    };
    let mut sim = FabricSim::new(topo, fabric_cfg);
    sim.add_flows(flows.iter().copied());
    let deadline = SimTime::ZERO + cfg.scale.window + cfg.scale.drain;
    sim.run_until_done(deadline);
    let r = sim.results();

    // Trace interrogation: totals, the lossless-victim set, and the
    // NACK/RTO → retransmission causality scan, all inside the worker.
    let (totals, victim_flows, orphans) = sim
        .trace()
        .with(|rec| {
            let mut nacked: HashSet<(u64, u64)> = HashSet::new();
            let mut rto_fired: HashSet<u64> = HashSet::new();
            let mut orphans = 0u64;
            for record in rec.records() {
                match record.event {
                    TraceEvent::IrnNack { flow, nack_seq, .. } => {
                        nacked.insert((flow, nack_seq));
                    }
                    TraceEvent::RtoFire { flow, .. } => {
                        rto_fired.insert(flow);
                    }
                    TraceEvent::IrnRetransmit { flow, seq } => {
                        let by_nack = nacked.iter().any(|&(f, ns)| f == flow && ns <= seq);
                        if !by_nack && !rto_fired.contains(&flow) {
                            orphans += 1;
                        }
                    }
                    _ => {}
                }
            }
            (rec.totals(), rec.lossless_victims().clone(), orphans)
        })
        .expect("universe cells always trace");

    let mut violations: Vec<String> = Vec::new();
    if totals.irn_nacks != r.irn.nacks() {
        violations.push(format!(
            "trace NACKs {} != counter NACKs {}",
            totals.irn_nacks,
            r.irn.nacks()
        ));
    }
    if totals.irn_retransmits != r.irn.retransmitted_packets {
        violations.push(format!(
            "trace retransmits {} != counter retransmits {}",
            totals.irn_retransmits, r.irn.retransmitted_packets
        ));
    }
    if totals.flow_stalls != r.flow_stalls {
        violations.push(format!(
            "trace stalls {} != counter stalls {}",
            totals.flow_stalls, r.flow_stalls
        ));
    }
    if r.rdma_stranded != 0 {
        violations.push(format!("{} stranded DCQCN senders", r.rdma_stranded));
    }
    if orphans != 0 {
        violations.push(format!(
            "{orphans} retransmissions without a preceding NACK or RTO"
        ));
    }

    let completed: HashSet<u64> = r.fct.records().iter().map(|x| x.flow.as_u64()).collect();
    let unfinished_ids: Vec<u64> = flows
        .iter()
        .map(|s| s.id.as_u64())
        .filter(|id| !completed.contains(id))
        .collect();
    match cfg.transport {
        RdmaTransport::Irn => {
            // The lossy universe has no excuse: every loss is
            // retransmittable, so every flow must finish — and nothing
            // may ever ask for PFC.
            if !unfinished_ids.is_empty() {
                violations.push(format!(
                    "IRN universe left {} flows unfinished",
                    unfinished_ids.len()
                ));
            }
            if r.pause_frames() > 0 {
                violations.push(format!(
                    "IRN universe emitted {} PFC pause frames",
                    r.pause_frames()
                ));
            }
            if r.drops.lossless_packets != 0 {
                // Every RDMA packet is LossyRdma here, so a drop counted
                // under the lossless class means a stray genuinely-
                // lossless packet existed somewhere in the run.
                violations.push(format!(
                    "stray lossless drops: {} (expected 0, lossy-rdma has {})",
                    r.drops.lossless_packets, r.drops.lossy_rdma_packets
                ));
            }
        }
        RdmaTransport::Dcqcn => {
            // The lossless universe may strand victims (no
            // retransmission), but only victims: TCP and undamaged RDMA
            // must finish.
            for &id in &unfinished_ids {
                if !victim_flows.contains(&id) {
                    violations.push(format!("flow {id} unfinished without being a loss victim"));
                }
            }
        }
    }
    if cfg.fault_seed.is_none() && !unfinished_ids.is_empty() {
        violations.push(format!(
            "zero-fault baseline left {} flows unfinished",
            unfinished_ids.len()
        ));
    }

    let delivered: u64 = r.fct.records().iter().map(|x| x.size.as_u64()).sum();
    let goodput_gbps = delivered as f64 * 8.0 / cfg.scale.window.as_secs_f64() / 1e9;

    IrnPoint {
        label: cfg.policy.label(),
        transport: cfg.transport.label(),
        fault_seed: cfg.fault_seed,
        digest: r.digest(),
        total_flows: flows.len(),
        completed: completed.len(),
        unfinished_ids,
        victims: victim_flows.len(),
        stalls: r.flow_stalls,
        pause_frames: r.pause_frames(),
        lossless_drops: r.drops.lossless_packets,
        lossy_rdma_drops: r.drops.lossy_rdma_packets,
        nacks: r.irn.nacks(),
        retransmits: r.irn.retransmitted_packets,
        rto_fires: r.irn.rto_fires,
        rdma_p99_slowdown: r
            .fct
            .slowdown_percentile(TrafficClass::Lossless, 0.99)
            .unwrap_or(f64::NAN),
        tcp_p99_slowdown: r
            .fct
            .slowdown_percentile(TrafficClass::Lossy, 0.99)
            .unwrap_or(f64::NAN),
        goodput_gbps,
        violations,
    }
}

/// The healthy grid: every arena policy × both universes.
#[derive(Debug, Clone)]
pub struct IrnGrid {
    /// Points in (policy, transport) order: DCQCN then IRN per policy.
    pub points: Vec<IrnPoint>,
}

impl IrnGrid {
    /// Every invariant violation across the grid (empty = pass).
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for p in &self.points {
            for v in &p.violations {
                out.push(format!("{}/{}: {v}", p.label, p.transport));
            }
        }
        out
    }

    /// Renders the grid table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&[
            "policy",
            "transport",
            "rdma p99",
            "tcp p99",
            "goodput",
            "pause frames",
            "rdma drops",
            "nacks",
            "rtx",
            "rto",
            "unfinished",
        ]);
        for p in &self.points {
            let rdma_drops = match p.transport {
                "IRN" => p.lossy_rdma_drops,
                _ => p.lossless_drops,
            };
            t.row(vec![
                p.label.clone(),
                p.transport.to_string(),
                fmt_f64(p.rdma_p99_slowdown),
                fmt_f64(p.tcp_p99_slowdown),
                fmt_f64(p.goodput_gbps),
                p.pause_frames.to_string(),
                rdma_drops.to_string(),
                p.nacks.to_string(),
                p.retransmits.to_string(),
                p.rto_fires.to_string(),
                (p.total_flows - p.completed).to_string(),
            ]);
        }
        format!(
            "lossless-vs-lossy grid: hybrid mix, {} policies x DCQCN/IRN\n{}",
            self.points.len() / 2,
            t.render()
        )
    }
}

/// Runs the healthy grid (no faults) for every arena policy.
pub fn irn_grid(scale: &ExperimentScale, jobs: usize) -> IrnGrid {
    let mut cells = Vec::new();
    for policy in crate::all_policies() {
        for transport in [RdmaTransport::Dcqcn, RdmaTransport::Irn] {
            cells.push(IrnCellConfig::new(scale.clone(), policy, transport, None));
        }
    }
    IrnGrid {
        points: par_map(jobs, &cells, run_irn_cell),
    }
}

/// The fault comparison: per fault seed, both universes on the *same*
/// sampled schedule, plus one zero-fault baseline per universe.
#[derive(Debug, Clone)]
pub struct IrnResilience {
    /// DCQCN points: baseline first, then one per fault seed.
    pub dcqcn: Vec<IrnPoint>,
    /// IRN points in the same order.
    pub irn: Vec<IrnPoint>,
}

impl IrnResilience {
    /// Every invariant violation across both universes.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for p in self.dcqcn.iter().chain(self.irn.iter()) {
            for v in &p.violations {
                out.push(format!(
                    "{}/{} seed {:?}: {v}",
                    p.label, p.transport, p.fault_seed
                ));
            }
        }
        out
    }

    /// Flows rescued per fault seed: unfinished under DCQCN, completed
    /// by IRN on the identical schedule (both universes register the
    /// exact same flow specs).
    pub fn rescued(&self) -> Vec<(u64, usize)> {
        self.dcqcn
            .iter()
            .zip(self.irn.iter())
            .filter_map(|(d, i)| {
                let seed = d.fault_seed?;
                let irn_unfinished: HashSet<u64> = i.unfinished_ids.iter().copied().collect();
                let rescued = d
                    .unfinished_ids
                    .iter()
                    .filter(|id| !irn_unfinished.contains(id))
                    .count();
                Some((seed, rescued))
            })
            .collect()
    }

    /// Renders the side-by-side degradation table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&[
            "fault seed",
            "dcqcn goodput Δ%",
            "dcqcn unfinished",
            "victims",
            "stalls",
            "irn goodput Δ%",
            "irn nacks",
            "irn rtx",
            "irn rto",
            "rescued",
        ]);
        let base_d = self.dcqcn.first().map_or(f64::NAN, |p| p.goodput_gbps);
        let base_i = self.irn.first().map_or(f64::NAN, |p| p.goodput_gbps);
        let delta = |g: f64, base: f64| (g - base) / base * 100.0;
        let rescued = self.rescued();
        for ((d, i), &(seed, resc)) in self
            .dcqcn
            .iter()
            .zip(self.irn.iter())
            .skip(1)
            .zip(rescued.iter())
        {
            debug_assert_eq!(d.fault_seed, Some(seed));
            t.row(vec![
                seed.to_string(),
                fmt_f64(delta(d.goodput_gbps, base_d)),
                d.unfinished_ids.len().to_string(),
                d.victims.to_string(),
                d.stalls.to_string(),
                fmt_f64(delta(i.goodput_gbps, base_i)),
                i.nacks.to_string(),
                i.retransmits.to_string(),
                i.rto_fires.to_string(),
                resc.to_string(),
            ]);
        }
        let total_rescued: usize = rescued.iter().map(|&(_, n)| n).sum();
        format!(
            "fault resilience: DCQCN vs IRN on identical sampled schedules (L2BM policy)\n\
             {}\ntotal flows rescued by the lossy universe: {total_rescued}",
            t.render()
        )
    }
}

/// Runs the fault comparison with the L2BM policy over `fault_seeds`.
pub fn irn_resilience(scale: &ExperimentScale, fault_seeds: &[u64], jobs: usize) -> IrnResilience {
    let policy = PolicyChoice::l2bm();
    let mut cells = Vec::new();
    for transport in [RdmaTransport::Dcqcn, RdmaTransport::Irn] {
        cells.push(IrnCellConfig::new(scale.clone(), policy, transport, None));
        for &seed in fault_seeds {
            cells.push(IrnCellConfig::new(
                scale.clone(),
                policy,
                transport,
                Some(seed),
            ));
        }
    }
    let mut points = par_map(jobs, &cells, run_irn_cell);
    let irn = points.split_off(1 + fault_seeds.len());
    IrnResilience { dcqcn: points, irn }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_irn_cell_passes_battery_and_matches_dcqcn_flow_count() {
        let d = run_irn_cell(&IrnCellConfig::new(
            ExperimentScale::tiny(),
            PolicyChoice::l2bm(),
            RdmaTransport::Dcqcn,
            None,
        ));
        let i = run_irn_cell(&IrnCellConfig::new(
            ExperimentScale::tiny(),
            PolicyChoice::l2bm(),
            RdmaTransport::Irn,
            None,
        ));
        assert_eq!(d.violations, Vec::<String>::new());
        assert_eq!(i.violations, Vec::<String>::new());
        // The workload is generated before the transport applies: both
        // universes carry the exact same flow population.
        assert_eq!(d.total_flows, i.total_flows);
        assert_eq!(i.completed, i.total_flows);
        assert_eq!(i.pause_frames, 0, "lossy RDMA never pauses");
        assert_eq!(i.stalls, 0, "healthy runs never stall");
        assert_eq!(d.nacks, 0, "DCQCN universe has no IRN machinery");
    }

    #[test]
    fn resilience_comparison_rescues_dcqcn_victims() {
        // One seed is enough for the unit tier; the full 8-seed battery
        // runs in `repro irn --check`. Seed 11 samples a schedule whose
        // losses victimise lossless flows at tiny scale.
        let r = irn_resilience(&ExperimentScale::tiny(), &[11, 23], 2);
        assert_eq!(r.violations(), Vec::<String>::new());
        assert_eq!(r.dcqcn.len(), 3);
        assert_eq!(r.irn.len(), 3);
        for p in &r.irn {
            assert_eq!(p.unfinished_ids.len(), 0, "IRN must deliver everything");
            assert_eq!(p.pause_frames, 0);
        }
        // The render must produce the side-by-side table either way.
        let table = r.render();
        assert!(table.contains("rescued"));
    }
}
