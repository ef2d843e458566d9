//! Fault cells: the fig. 7 hybrid mix under a seeded fault schedule,
//! carried by either RDMA universe, with one invariant battery asserted
//! after every run.
//!
//! A [`FaultCell`] samples its fault schedule (link flaps, corruption
//! windows, stuck PFC pauses) from a dedicated seed *before* the run,
//! arms the PFC storm watchdog and the flow liveness watchdog (which
//! only observes), and runs with the flight recorder on. Three sweeps
//! are lists of such cells:
//!
//! * [`chaos`] — every arena policy under DCQCN, each against its own
//!   zero-fault baseline: does buffer management survive faults?
//! * [`irn_grid`] — every arena policy × {DCQCN, IRN} on a healthy
//!   fabric: does L2BM's lead survive once RDMA stops needing PFC?
//! * [`irn_resilience`] — identical schedules in both universes. DCQCN
//!   has no retransmission, so one lossless wire loss strands a flow;
//!   IRN repairs it. "Rescued" flows are unfinished under DCQCN but
//!   completed by IRN on the same schedule.
//!
//! The battery checks buffer conservation, trace ↔ counter
//! reconciliation, the absence of defects, stranded senders, late or
//! stale timers and orphan retransmissions, and that every flow not
//! victimised by a lossless-class loss completes. Violations are
//! collected as strings (never panics), so one broken run cannot poison
//! a parallel sweep worker. Runs are deterministic, so every cell's
//! digest is bit-identical at any `--jobs` value.

use std::collections::{BTreeSet, HashMap, HashSet};

use dcn_fabric::{FabricConfig, FabricSim, PolicyChoice, RdmaTransport, RunResults};
use dcn_net::{NodeId, Topology, TrafficClass};
use dcn_sim::{
    par_map, FaultSchedule, SimDuration, SimRng, SimTime, TraceConfig, TraceEvent, TraceTotals,
};

use crate::hybrid::{goodput_gbps, hybrid_flows, p99_slowdown, HybridConfig, RDMA_PRIO};
use crate::report::{delta_pct, fmt_f64, mean_finite, Outcome, Table};
use crate::scale::ExperimentScale;

/// Threshold of both watchdogs every fault cell arms. Long enough that
/// legitimate congestion pauses at these scales resolve first; short
/// enough to demonstrably bound an injected stuck XOFF within a run.
pub const CHAOS_WATCHDOG: SimDuration = SimDuration::from_millis(1);

/// The fixed fault-schedule seeds `repro chaos` and `repro irn` run.
pub const CHAOS_CHECK_SEEDS: [u64; 8] = [11, 23, 37, 41, 53, 67, 79, 97];

/// One fault cell: a hybrid mix, the universe carrying its RDMA half,
/// and the seed its fault schedule is sampled from (`None` = the
/// zero-fault baseline).
#[derive(Debug, Clone)]
pub struct FaultCell {
    /// Scale, policy and the two loads.
    pub hybrid: HybridConfig,
    /// Which universe carries the RDMA half.
    pub transport: RdmaTransport,
    /// Seed of the fault schedule; `None` injects nothing.
    pub fault_seed: Option<u64>,
}

impl FaultCell {
    /// Every cell of a sweep at RDMA 0.4 / TCP 0.4, in the order policy,
    /// scale, transport, then the zero-fault baseline followed by one
    /// cell per fault seed.
    pub fn grid(
        policies: &[PolicyChoice],
        scales: &[ExperimentScale],
        transports: &[RdmaTransport],
        fault_seeds: &[u64],
    ) -> Vec<FaultCell> {
        let mut cells = Vec::new();
        for &policy in policies {
            for scale in scales {
                for &transport in transports {
                    for fault_seed in
                        std::iter::once(None).chain(fault_seeds.iter().map(|&s| Some(s)))
                    {
                        let hybrid = HybridConfig {
                            scale: scale.clone(),
                            policy,
                            rdma_load: 0.4,
                            tcp_load: 0.4,
                        };
                        cells.push(FaultCell {
                            hybrid,
                            transport,
                            fault_seed,
                        });
                    }
                }
            }
        }
        cells
    }
}

/// Everything one fault cell reports. Plain data (`Send`): the trace is
/// interrogated inside the worker, never shipped across threads.
#[derive(Debug, Clone)]
pub struct FaultPoint {
    /// The cell that ran.
    pub cell: FaultCell,
    /// Scheduled fault events.
    pub fault_events: usize,
    /// `(flow id, class)` of every flow unfinished at the deadline.
    pub unfinished: Vec<(u64, TrafficClass)>,
    /// Flows that lost a lossless-class packet (DCQCN has no
    /// retransmission, so these may legitimately never finish).
    pub victims: usize,
    /// The run's merged results.
    pub results: RunResults,
    /// Invariant violations (empty = the battery passed).
    pub violations: Vec<String>,
}

impl FaultPoint {
    /// `policy/transport seed …`: what this run's digest and violations
    /// are filed under.
    pub fn name(&self) -> String {
        format!(
            "{}/{} seed {:?}",
            self.cell.hybrid.policy.label(),
            self.cell.transport.label(),
            self.cell.fault_seed
        )
    }

    /// Delivered goodput over the traffic window, Gbit/s.
    pub fn goodput_gbps(&self) -> f64 {
        goodput_gbps(&self.results, self.cell.hybrid.scale.window)
    }

    /// p99 FCT slowdown of one class's completed flows.
    pub fn p99(&self, class: TrafficClass) -> f64 {
        p99_slowdown(&self.results, class)
    }
}

/// Samples a bounded, transient fault schedule from `seed`: one to
/// three faults among link flaps, corruption windows and stuck PFC
/// pauses, all landing inside the traffic window so recovery is
/// observable before the drain deadline.
pub fn sample_fault_schedule(topo: &Topology, window: SimDuration, seed: u64) -> FaultSchedule {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x0C4A_05FA_17ED_5EED);
    let mut s = FaultSchedule::none();
    let wn = window.as_nanos();
    let n_links = topo.links().len() as u64;
    let switches: Vec<NodeId> = topo.switches().collect();
    let n_faults = 1 + rng.below(3);
    for _ in 0..n_faults {
        // Faults start between 10% and 60% of the window.
        let at = SimTime::from_nanos(wn / 10 + rng.below(wn / 2));
        match rng.below(3) {
            0 => {
                // A short link flap: down for 5–15% of the window.
                let link = rng.below(n_links) as u32;
                let outage = SimDuration::from_nanos(wn / 20 + rng.below(wn / 10));
                s.link_flap(link, at, outage);
            }
            1 => {
                // A corruption window: BER high enough to lose a few
                // percent of the packets crossing the link.
                let link = rng.below(n_links) as u32;
                let ber = 2e-6 * (1 + rng.below(10)) as f64;
                let dur = SimDuration::from_nanos(wn / 5 + rng.below(wn / 4));
                s.corruption_window(link, at, dur, ber);
            }
            _ => {
                // A stuck XOFF against a random switch egress queue at
                // the lossless priority, held for two windows: only the
                // watchdog can unblock it inside the run.
                let sw = switches[rng.below(switches.len() as u64) as usize];
                let ports = topo.node(sw).port_count() as u64;
                let port = rng.below(ports) as u16;
                let hold = SimDuration::from_nanos(wn * 2);
                s.pause_stuck(sw.index() as u32, port, RDMA_PRIO.index() as u8, at, hold);
            }
        }
    }
    s
}

/// What the flight recorder and the switches witnessed in one run,
/// gathered inside the worker.
#[derive(Debug, Clone)]
struct Evidence {
    /// Trace totals, reconciled against the run's counters.
    totals: TraceTotals,
    /// Flows that lost a lossless-class packet, from the recorder's
    /// never-evicted aggregate (a ring scan could wrap past the drops
    /// and false-positive the unfinished ⊆ victims check).
    victims: BTreeSet<u64>,
    /// Retransmissions preceded neither by a same-flow NACK at or below
    /// their sequence nor by an RTO of that flow.
    orphan_retransmits: u64,
    /// One message per switch whose MMU accounting does not conserve.
    conservation: Vec<String>,
}

impl Evidence {
    fn gather(sim: &FabricSim) -> Evidence {
        let world = sim.world();
        let conservation = world
            .topology()
            .switches()
            .filter_map(|id| {
                let e = world.switch(id)?.mmu().check_conservation().err()?;
                Some(format!("switch {id}: conservation broken: {e}"))
            })
            .collect();
        sim.trace()
            .with(|rec| {
                let mut min_nack: HashMap<u64, u64> = HashMap::new();
                let mut rto_fired: HashSet<u64> = HashSet::new();
                let mut orphan_retransmits = 0;
                for record in rec.records() {
                    match record.event {
                        TraceEvent::IrnNack { flow, nack_seq, .. } => {
                            let m = min_nack.entry(flow).or_insert(nack_seq);
                            *m = (*m).min(nack_seq);
                        }
                        TraceEvent::RtoFire { flow, .. } => {
                            rto_fired.insert(flow);
                        }
                        TraceEvent::IrnRetransmit { flow, seq } => {
                            let nacked = min_nack.get(&flow).is_some_and(|&m| m <= seq);
                            if !nacked && !rto_fired.contains(&flow) {
                                orphan_retransmits += 1;
                            }
                        }
                        _ => {}
                    }
                }
                Evidence {
                    totals: rec.totals(),
                    victims: rec.lossless_victims().clone(),
                    orphan_retransmits,
                    conservation,
                }
            })
            .expect("fault cells always trace")
    }
}

/// The invariant battery: a function of the run's results and the
/// recorder's evidence only, so every check can be shown to fire.
fn battery(p: &FaultPoint, ev: &Evidence) -> Vec<String> {
    let (r, t) = (&p.results, &ev.totals);
    let mut v = ev.conservation.clone();
    // Trace totals reconcile exactly with the merged run counters.
    for (what, traced, counted) in [
        (
            "drops",
            t.drops(),
            r.drops.lossy_packets + r.drops.lossless_packets,
        ),
        ("pauses", t.pfc_pauses, r.pfc.pause_frames()),
        ("resumes", t.pfc_resumes, r.pfc.resume_frames()),
        ("watchdog fires", t.watchdog_fires, r.pfc.watchdog_fires()),
        ("NACKs", t.irn_nacks, r.irn.nacks()),
        (
            "retransmits",
            t.irn_retransmits,
            r.irn.retransmitted_packets,
        ),
        ("stalls", t.flow_stalls, r.flow_stalls),
    ] {
        if traced != counted {
            v.push(format!("trace {what} {traced} != counter {what} {counted}"));
        }
    }
    // No silent defects. Wire loss makes DCQCN flows victims, never
    // stranded senders; wheel timers fire at their exact deadline even
    // under fault storms, so nothing is clamped forward to "now" and no
    // cancelled timer pops; every retransmission has a cause.
    for (n, what) in [
        (t.defects, "defect events recorded"),
        (r.rdma_stranded, "stranded DCQCN senders"),
        (
            r.queue.past_clamps,
            "past-time clamps (timers must never fire late)",
        ),
        (
            r.queue.stale_timer_pops,
            "stale timer pops (cancelled timers must never fire)",
        ),
        (
            ev.orphan_retransmits,
            "retransmissions without a preceding NACK or RTO",
        ),
    ] {
        if n != 0 {
            v.push(format!("{n} {what}"));
        }
    }
    // Every non-victim flow completes: all TCP, undamaged DCQCN RDMA,
    // and — with no lossless class to victimise — every IRN flow.
    for &(id, class) in &p.unfinished {
        if !ev.victims.contains(&id) {
            v.push(format!(
                "flow {id} ({class:?}) unfinished without being a loss victim"
            ));
        }
    }
    if p.cell.transport == RdmaTransport::Irn {
        // Nothing in the lossy universe may ask for PFC, and no
        // genuinely lossless packet may exist in it.
        if r.pause_frames() != 0 {
            v.push(format!(
                "IRN universe emitted {} PFC pause frames",
                r.pause_frames()
            ));
        }
        if r.drops.lossless_packets != 0 {
            v.push(format!(
                "stray lossless drops: {} (expected 0, lossy-rdma has {})",
                r.drops.lossless_packets, r.drops.lossy_rdma_packets
            ));
        }
    }
    if p.cell.fault_seed.is_none() {
        // The baseline must be entirely healthy.
        if !p.unfinished.is_empty() {
            v.push(format!(
                "zero-fault baseline left {} flows unfinished",
                p.unfinished.len()
            ));
        }
        if r.drops.lossless_packets != 0 {
            v.push(format!(
                "zero-fault baseline dropped {} lossless packets",
                r.drops.lossless_packets
            ));
        }
        if r.pfc.watchdog_fires() != 0 {
            v.push("zero-fault baseline fired the watchdog".into());
        }
    }
    v
}

/// Runs one cell with the flight recorder on; the battery is not yet
/// applied.
fn simulate(cell: &FaultCell) -> (FaultPoint, Evidence) {
    let scale = &cell.hybrid.scale;
    let topo = Topology::clos(&scale.clos);
    let flows = hybrid_flows(&cell.hybrid, &topo);
    let faults = match cell.fault_seed {
        Some(seed) => sample_fault_schedule(&topo, scale.window, seed),
        None => FaultSchedule::none(),
    };
    let fault_events = faults.len();
    let mut switch = scale.switch_config();
    switch.pfc_watchdog = Some(CHAOS_WATCHDOG);
    let fabric_cfg = FabricConfig {
        policy: cell.hybrid.policy,
        rdma_transport: cell.transport,
        seed: scale.seed,
        switch,
        flow_watchdog: Some(CHAOS_WATCHDOG),
        sample_interval: None,
        trace: TraceConfig::enabled(),
        faults,
        ..FabricConfig::default()
    };
    let mut sim = FabricSim::new(topo, fabric_cfg);
    sim.add_flows(flows.iter().copied());
    sim.run_until_done(SimTime::ZERO + scale.window + scale.drain);
    let results = sim.results();
    let evidence = Evidence::gather(&sim);
    let completed: HashSet<u64> = results
        .fct
        .records()
        .iter()
        .map(|x| x.flow.as_u64())
        .collect();
    let point = FaultPoint {
        cell: cell.clone(),
        fault_events,
        unfinished: flows
            .iter()
            .filter(|s| !completed.contains(&s.id.as_u64()))
            .map(|s| (s.id.as_u64(), s.class))
            .collect(),
        victims: evidence.victims.len(),
        results,
        violations: Vec::new(),
    };
    (point, evidence)
}

/// Runs one fault cell and asserts the invariant battery.
pub fn run_fault_cell(cell: &FaultCell) -> FaultPoint {
    let (mut point, evidence) = simulate(cell);
    point.violations = battery(&point, &evidence);
    point
}

/// The outcome of a fault sweep: `text`, plus every point's digest and
/// violations filed under its name.
fn fault_outcome<'a>(
    text: String,
    points: impl Iterator<Item = &'a FaultPoint> + Clone,
) -> Outcome {
    Outcome {
        text,
        digests: points
            .clone()
            .map(|p| (p.name(), p.results.digest()))
            .collect(),
        violations: points
            .flat_map(|p| {
                p.violations
                    .iter()
                    .map(move |v| format!("{}: {v}", p.name()))
            })
            .collect(),
    }
}

/// The chaos sweep: every arena policy under DCQCN, a zero-fault
/// baseline plus one cell per fault seed, rendered as goodput and tail
/// FCT under chaos relative to each policy's own baseline.
pub fn chaos(scale: &ExperimentScale, fault_seeds: &[u64], jobs: usize) -> Outcome {
    let cells = FaultCell::grid(
        &crate::all_policies(),
        std::slice::from_ref(scale),
        &[RdmaTransport::Dcqcn],
        fault_seeds,
    );
    let points = par_map(jobs, &cells, run_fault_cell);
    let mut t = Table::new(&[
        "policy",
        "goodput base",
        "goodput chaos",
        "Δ%",
        "tcp p99 base",
        "tcp p99 chaos",
        "rdma p99 base",
        "rdma p99 chaos",
        "victims",
        "watchdog",
        "violations",
    ]);
    for group in points.chunks(1 + fault_seeds.len()) {
        let (base, runs) = (&group[0], &group[1..]);
        let mean = |f: &dyn Fn(&FaultPoint) -> f64| mean_finite(runs.iter().map(f));
        let goodput = mean(&FaultPoint::goodput_gbps);
        t.row(vec![
            base.cell.hybrid.policy.label(),
            fmt_f64(base.goodput_gbps()),
            fmt_f64(goodput),
            fmt_f64(delta_pct(goodput, base.goodput_gbps())),
            fmt_f64(base.p99(TrafficClass::Lossy)),
            fmt_f64(mean(&|p| p.p99(TrafficClass::Lossy))),
            fmt_f64(base.p99(TrafficClass::Lossless)),
            fmt_f64(mean(&|p| p.p99(TrafficClass::Lossless))),
            runs.iter().map(|p| p.victims).sum::<usize>().to_string(),
            runs.iter()
                .map(|p| p.results.pfc.watchdog_fires())
                .sum::<u64>()
                .to_string(),
            group
                .iter()
                .map(|p| p.violations.len())
                .sum::<usize>()
                .to_string(),
        ]);
    }
    let text = format!(
        "chaos: hybrid workload under {} sampled fault schedules per policy\n{}",
        fault_seeds.len(),
        t.render()
    );
    fault_outcome(text, points.iter())
}

/// The healthy grid: every arena policy × both universes, no faults.
pub fn irn_grid(scale: &ExperimentScale, jobs: usize) -> Outcome {
    let policies = crate::all_policies();
    let cells = FaultCell::grid(
        &policies,
        std::slice::from_ref(scale),
        &[RdmaTransport::Dcqcn, RdmaTransport::Irn],
        &[],
    );
    let points = par_map(jobs, &cells, run_fault_cell);
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
    for p in &points {
        let r = &p.results;
        let rdma_drops = match p.cell.transport {
            RdmaTransport::Irn => r.drops.lossy_rdma_packets,
            RdmaTransport::Dcqcn => r.drops.lossless_packets,
        };
        t.row(vec![
            p.cell.hybrid.policy.label(),
            p.cell.transport.label().to_string(),
            fmt_f64(p.p99(TrafficClass::Lossless)),
            fmt_f64(p.p99(TrafficClass::Lossy)),
            fmt_f64(p.goodput_gbps()),
            r.pause_frames().to_string(),
            rdma_drops.to_string(),
            r.irn.nacks().to_string(),
            r.irn.retransmitted_packets.to_string(),
            r.irn.rto_fires.to_string(),
            p.unfinished.len().to_string(),
        ]);
    }
    let text = format!(
        "lossless-vs-lossy grid: hybrid mix, {} policies x DCQCN/IRN\n{}",
        policies.len(),
        t.render()
    );
    fault_outcome(text, points.iter())
}

/// The fault comparison: per fault seed, both universes on the *same*
/// sampled schedule, plus one zero-fault baseline per universe.
#[derive(Debug, Clone)]
pub struct IrnResilience {
    /// DCQCN points: baseline first, then one per fault seed.
    pub dcqcn: Vec<FaultPoint>,
    /// IRN points in the same order.
    pub irn: Vec<FaultPoint>,
}

impl IrnResilience {
    /// Flows rescued per fault seed: unfinished under DCQCN, completed
    /// by IRN on the identical schedule (both universes register the
    /// exact same flow specs).
    pub fn rescued(&self) -> Vec<(u64, usize)> {
        self.dcqcn
            .iter()
            .zip(&self.irn)
            .filter_map(|(d, i)| {
                let seed = d.cell.fault_seed?;
                let rescued = d
                    .unfinished
                    .iter()
                    .filter(|u| !i.unfinished.contains(u))
                    .count();
                Some((seed, rescued))
            })
            .collect()
    }

    /// The side-by-side degradation table, digests and violations.
    pub fn outcome(&self) -> Outcome {
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
        let base_d = self
            .dcqcn
            .first()
            .map_or(f64::NAN, FaultPoint::goodput_gbps);
        let base_i = self.irn.first().map_or(f64::NAN, FaultPoint::goodput_gbps);
        let rescued = self.rescued();
        for ((d, i), &(seed, resc)) in self.dcqcn.iter().zip(&self.irn).skip(1).zip(&rescued) {
            t.row(vec![
                seed.to_string(),
                fmt_f64(delta_pct(d.goodput_gbps(), base_d)),
                d.unfinished.len().to_string(),
                d.victims.to_string(),
                d.results.flow_stalls.to_string(),
                fmt_f64(delta_pct(i.goodput_gbps(), base_i)),
                i.results.irn.nacks().to_string(),
                i.results.irn.retransmitted_packets.to_string(),
                i.results.irn.rto_fires.to_string(),
                resc.to_string(),
            ]);
        }
        let total_rescued: usize = rescued.iter().map(|&(_, n)| n).sum();
        let text = format!(
            "fault resilience: DCQCN vs IRN on identical sampled schedules (L2BM policy)\n\
             {}\ntotal flows rescued by the lossy universe: {total_rescued}",
            t.render()
        );
        let points: Vec<FaultPoint> = self.dcqcn.iter().chain(&self.irn).cloned().collect();
        fault_outcome(text, points.iter())
    }
}

/// Runs the fault comparison with the L2BM policy over `fault_seeds`.
pub fn irn_resilience(scale: &ExperimentScale, fault_seeds: &[u64], jobs: usize) -> IrnResilience {
    let cells = FaultCell::grid(
        &[PolicyChoice::l2bm()],
        std::slice::from_ref(scale),
        &[RdmaTransport::Dcqcn, RdmaTransport::Irn],
        fault_seeds,
    );
    let mut dcqcn = par_map(jobs, &cells, run_fault_cell);
    let irn = dcqcn.split_off(1 + fault_seeds.len());
    IrnResilience { dcqcn, irn }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(transport: RdmaTransport, fault_seed: Option<u64>) -> FaultCell {
        let hybrid = HybridConfig {
            scale: ExperimentScale::tiny(),
            policy: PolicyChoice::l2bm(),
            rdma_load: 0.4,
            tcp_load: 0.4,
        };
        FaultCell {
            hybrid,
            transport,
            fault_seed,
        }
    }

    #[test]
    fn sampled_schedules_are_deterministic_and_bounded() {
        let scale = ExperimentScale::tiny();
        let topo = Topology::clos(&scale.clos);
        let a = sample_fault_schedule(&topo, scale.window, 7);
        let b = sample_fault_schedule(&topo, scale.window, 7);
        assert_eq!(a, b, "same seed, same schedule");
        assert!(!a.is_empty());
        assert!(a.len() <= 6, "at most 3 faults of 2 events each");
        let c = sample_fault_schedule(&topo, scale.window, 8);
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn healthy_cells_pass_the_battery_in_both_universes() {
        let d = run_fault_cell(&cell(RdmaTransport::Dcqcn, None));
        let i = run_fault_cell(&cell(RdmaTransport::Irn, None));
        for p in [&d, &i] {
            assert_eq!(p.violations, Vec::<String>::new(), "{}", p.name());
            assert_eq!(p.fault_events, 0);
            assert!(p.unfinished.is_empty());
            assert_eq!(p.victims, 0);
            assert_eq!(p.results.pfc.watchdog_fires(), 0);
            assert_eq!(p.results.flow_stalls, 0, "healthy runs never stall");
        }
        // The workload is generated before the transport applies: both
        // universes carry the exact same flow population.
        let registered = |p: &FaultPoint| p.results.fct.len() + p.unfinished.len();
        assert_eq!(registered(&d), registered(&i));
        assert_eq!(i.results.pause_frames(), 0, "lossy RDMA never pauses");
        assert_eq!(
            d.results.irn.nacks(),
            0,
            "DCQCN universe has no IRN machinery"
        );
    }

    #[test]
    fn faulted_cells_pass_the_battery_and_are_jobs_invariant() {
        let cells = FaultCell::grid(
            &[PolicyChoice::l2bm()],
            &[ExperimentScale::tiny()],
            &[RdmaTransport::Dcqcn, RdmaTransport::Irn],
            &CHAOS_CHECK_SEEDS[..2],
        );
        let serial = par_map(1, &cells, run_fault_cell);
        let parallel = par_map(8, &cells, run_fault_cell);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.results.digest(), b.results.digest(), "{}", a.name());
            assert_eq!(a.violations, Vec::<String>::new(), "{}", a.name());
            assert_eq!(b.violations, Vec::<String>::new());
            assert_eq!(a.fault_events > 0, a.cell.fault_seed.is_some());
        }
    }

    #[test]
    fn resilience_comparison_rescues_dcqcn_victims() {
        // Two seeds are enough for the unit tier; the full 8-seed sweep
        // runs in `repro irn --check`.
        let r = irn_resilience(&ExperimentScale::tiny(), &[11, 23], 2);
        assert_eq!((r.dcqcn.len(), r.irn.len()), (3, 3));
        let out = r.outcome();
        assert_eq!(out.violations, Vec::<String>::new());
        assert_eq!(out.digests.len(), 6);
        assert!(out.text.contains("rescued"));
    }

    #[test]
    fn every_battery_check_fires_on_its_doctored_input() {
        let dcqcn = simulate(&cell(RdmaTransport::Dcqcn, Some(11)));
        let irn = simulate(&cell(RdmaTransport::Irn, Some(11)));
        assert_eq!(battery(&dcqcn.0, &dcqcn.1), Vec::<String>::new());
        assert_eq!(battery(&irn.0, &irn.1), Vec::<String>::new());
        let fires = |run: &(FaultPoint, Evidence),
                     doctor: &dyn Fn(&mut FaultPoint, &mut Evidence)| {
            let (mut p, mut ev) = run.clone();
            doctor(&mut p, &mut ev);
            battery(&p, &ev)
        };
        let only = |got: Vec<String>, want: &str| {
            assert_eq!(got.len(), 1, "{want}: {got:?}");
            assert!(got[0].contains(want), "{want}: {got:?}");
        };
        only(
            fires(&dcqcn, &|p, _| p.results.drops.lossy_packets += 1),
            "trace drops",
        );
        only(
            fires(&dcqcn, &|_, ev| ev.totals.pfc_pauses += 1),
            "trace pauses",
        );
        only(
            fires(&irn, &|_, ev| ev.totals.irn_nacks += 1),
            "trace NACKs",
        );
        only(
            fires(&dcqcn, &|p, _| p.results.rdma_stranded = 1),
            "1 stranded DCQCN senders",
        );
        only(
            fires(&irn, &|_, ev| ev.orphan_retransmits = 1),
            "1 retransmissions without a preceding NACK or RTO",
        );
        only(
            fires(&dcqcn, &|p, _| {
                p.unfinished.push((u64::MAX, TrafficClass::Lossy))
            }),
            "(Lossy) unfinished without being a loss victim",
        );
        only(
            fires(&irn, &|p, ev| {
                p.results.pfc.record_pause();
                ev.totals.pfc_pauses += 1;
            }),
            "IRN universe emitted 1 PFC pause frames",
        );
        only(
            fires(&dcqcn, &|p, _| p.results.queue.past_clamps = 1),
            "1 past-time clamps",
        );
    }
}
