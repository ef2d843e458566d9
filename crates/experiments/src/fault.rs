//! Fault cells: the fig. 7 hybrid mix under a seeded fault schedule,
//! carried by either RDMA universe, with one invariant battery asserted
//! after every run.
//!
//! A `FaultCell` samples its fault schedule (link flaps, corruption
//! windows, stuck PFC pauses) from a dedicated seed *before* the run,
//! arms the PFC storm watchdog and the flow liveness watchdog (which
//! only observes), and runs with the flight recorder on. Two `repro`
//! experiments, and the tournament's chaos arena, are lists of such
//! cells:
//!
//! * [`chaos`] — every arena policy under DCQCN, each against its own
//!   zero-fault baseline: does buffer management survive faults?
//! * [`irn`] — first every arena policy × {DCQCN, IRN} on a healthy
//!   fabric: does L2BM's lead survive once RDMA stops needing PFC?
//!   Then identical schedules in both universes. DCQCN has no
//!   retransmission, so one lossless wire loss strands a flow; IRN
//!   repairs it. "Rescued" flows are unfinished under DCQCN but
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
use std::sync::Arc;

use dcn_fabric::{FabricSim, PolicyChoice, RdmaTransport, RunResults};
use dcn_net::{NodeId, Topology, TrafficClass};
use dcn_sim::{FaultSchedule, SimDuration, SimRng, SimTime, TraceConfig, TraceEvent, TraceTotals};

use crate::hybrid::{goodput_gbps, hybrid_inputs, p99_slowdown, HybridConfig, RDMA_PRIO};
use crate::report::{delta_pct, fmt_f64, mean_finite, Outcome, Table};
use crate::scale::ExperimentScale;
use crate::sweep::{run_fault_cells, sweep_outcome, SweepOptions};

/// Threshold of both watchdogs every fault cell arms. Long enough that
/// legitimate congestion pauses at these scales resolve first; short
/// enough to demonstrably bound an injected stuck XOFF within a run.
const WATCHDOG: SimDuration = SimDuration::from_millis(1);

/// The fixed fault-schedule seeds `repro chaos` and `repro irn` run.
pub(crate) const CHAOS_CHECK_SEEDS: [u64; 8] = [11, 23, 37, 41, 53, 67, 79, 97];

/// One fault cell: a hybrid mix, the universe carrying its RDMA half,
/// and the seed its fault schedule is sampled from (`None` = the
/// zero-fault baseline).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FaultCell {
    /// Scale, policy and the two loads.
    pub hybrid: HybridConfig,
    /// Which universe carries the RDMA half.
    pub transport: RdmaTransport,
    /// Seed of the fault schedule; `None` injects nothing.
    pub fault_seed: Option<u64>,
}

impl FaultCell {
    /// Every cell of a sweep at RDMA 0.4 / TCP 0.4, in the order policy,
    /// transport, then the zero-fault baseline followed by one cell per
    /// fault seed.
    pub(crate) fn grid(
        policies: &[PolicyChoice],
        scale: &ExperimentScale,
        transports: &[RdmaTransport],
        fault_seeds: &[u64],
    ) -> Vec<FaultCell> {
        let mut cells = Vec::new();
        for &policy in policies {
            for &transport in transports {
                for fault_seed in std::iter::once(None).chain(fault_seeds.iter().map(|&s| Some(s)))
                {
                    cells.push(FaultCell {
                        hybrid: HybridConfig::paper(scale, policy, 0.4),
                        transport,
                        fault_seed,
                    });
                }
            }
        }
        cells
    }
}

/// Everything one fault cell reports. Plain data (`Send`): the trace is
/// interrogated inside the worker, never shipped across threads.
#[derive(Debug, Clone)]
pub(crate) struct FaultPoint {
    /// The cell that ran.
    pub cell: FaultCell,
    /// Scheduled fault events.
    pub fault_events: usize,
    /// `(flow id, class)` of every flow unfinished at the deadline.
    pub unfinished: Vec<(u64, TrafficClass)>,
    /// Flows that lost a lossless-class packet (DCQCN has no
    /// retransmission, so these may legitimately never finish).
    pub victims: usize,
    /// The run's merged results, shared by every copy of the point.
    pub results: Arc<RunResults>,
    /// Invariant violations (empty = the battery passed).
    pub violations: Vec<String>,
}

impl FaultPoint {
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
    // The sampled schedule reached the fabric: faults iff a fault seed.
    if (p.fault_events > 0) != p.cell.fault_seed.is_some() {
        let (n, seed) = (p.fault_events, p.cell.fault_seed);
        v.push(format!(
            "{n} scheduled fault events under fault seed {seed:?}"
        ));
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
/// applied. The cell is its hybrid run with six settings changed: the
/// transport, both watchdogs, the recorder on, the sampler off and the
/// fault schedule.
fn simulate(cell: &FaultCell) -> (FaultPoint, Evidence) {
    let mut inputs = hybrid_inputs(&cell.hybrid);
    let cfg = &mut inputs.cfg;
    cfg.rdma_transport = cell.transport;
    cfg.switch.pfc_watchdog = Some(WATCHDOG);
    cfg.flow_watchdog = Some(WATCHDOG);
    cfg.trace = TraceConfig::enabled();
    cfg.sample_interval = None;
    if let Some(seed) = cell.fault_seed {
        cfg.faults = sample_fault_schedule(&inputs.topo, cell.hybrid.scale.window, seed);
    }
    let fault_events = cfg.faults.len();
    let flows: Vec<(u64, TrafficClass)> = inputs
        .flows
        .iter()
        .map(|s| (s.id.as_u64(), s.class))
        .collect();
    let sim = inputs.simulate();
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
            .into_iter()
            .filter(|(id, _)| !completed.contains(id))
            .collect(),
        victims: evidence.victims.len(),
        results: Arc::new(results),
        violations: Vec::new(),
    };
    (point, evidence)
}

/// Runs one fault cell and asserts the invariant battery.
pub(crate) fn run_fault_cell(cell: &FaultCell) -> FaultPoint {
    let (mut point, evidence) = simulate(cell);
    point.violations = battery(&point, &evidence);
    point
}

/// `repro chaos`: every arena policy under DCQCN, a zero-fault baseline
/// plus one cell per fixed fault seed, rendered as goodput and tail FCT
/// under chaos relative to each policy's own baseline. The fault seeds
/// are fixed and every cell is traced, so `opts.seeds` is not read.
pub fn chaos(scale: &ExperimentScale, opts: &SweepOptions) -> Outcome {
    let cells = FaultCell::grid(
        &crate::all_policies(),
        scale,
        &[RdmaTransport::Dcqcn],
        &CHAOS_CHECK_SEEDS,
    );
    let reps = run_fault_cells(&cells, &SweepOptions { seeds: 1, ..*opts });
    let points: Vec<&FaultPoint> = reps.iter().map(|r| &r[0]).collect();
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
    for group in points.chunks(1 + CHAOS_CHECK_SEEDS.len()) {
        let (base, runs) = (group[0], &group[1..]);
        let mean = |f: &dyn Fn(&FaultPoint) -> f64| mean_finite(runs.iter().map(|p| f(p)));
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
        CHAOS_CHECK_SEEDS.len(),
        t.render()
    );
    sweep_outcome(text, &reps, scale.seed)
}

/// The fault comparison's cells: L2BM under DCQCN, then under IRN,
/// each a zero-fault baseline followed by one cell per fixed fault seed.
fn resilience_cells(scale: &ExperimentScale) -> Vec<FaultCell> {
    FaultCell::grid(
        &[PolicyChoice::l2bm()],
        scale,
        &[RdmaTransport::Dcqcn, RdmaTransport::Irn],
        &CHAOS_CHECK_SEEDS,
    )
}

/// `repro irn`, the lossless-vs-lossy universe comparison, as two
/// tables. The healthy grid runs every arena policy × both universes
/// with no faults. The fault comparison runs L2BM in both universes on
/// the *same* sampled schedule per fixed fault seed, plus one zero-fault
/// baseline per universe, and counts the flows IRN rescues. Every cell
/// is traced, so `opts.seeds` is not read; the two L2BM zero-fault
/// baselines are healthy-grid cells, so a shared store runs each once.
pub fn irn(scale: &ExperimentScale, opts: &SweepOptions) -> Outcome {
    let policies = crate::all_policies();
    let mut cells = FaultCell::grid(
        &policies,
        scale,
        &[RdmaTransport::Dcqcn, RdmaTransport::Irn],
        &[],
    );
    let healthy = cells.len();
    cells.extend(resilience_cells(scale));
    let reps = run_fault_cells(&cells, &SweepOptions { seeds: 1, ..*opts });
    let points: Vec<&FaultPoint> = reps.iter().map(|r| &r[0]).collect();
    let (grid, faulted) = points.split_at(healthy);
    let (dcqcn, irn) = faulted.split_at(faulted.len() / 2);
    let text = format!(
        "lossless-vs-lossy grid: hybrid mix, {} policies x DCQCN/IRN\n{}\n{}",
        policies.len(),
        grid_table(grid),
        resilience_table(dcqcn, irn)
    );
    sweep_outcome(text, &reps, scale.seed)
}

/// The healthy grid's table, one row per cell.
fn grid_table(points: &[&FaultPoint]) -> String {
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
    for p in points {
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
    t.render()
}

/// Flows rescued per fault seed: unfinished under DCQCN, completed by
/// IRN on the identical schedule (both universes register the exact
/// same flow specs). Each side holds its baseline first, then one point
/// per fault seed.
fn rescued(dcqcn: &[&FaultPoint], irn: &[&FaultPoint]) -> Vec<(u64, usize)> {
    dcqcn
        .iter()
        .zip(irn)
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

/// The fault comparison's side-by-side degradation table.
fn resilience_table(dcqcn: &[&FaultPoint], irn: &[&FaultPoint]) -> String {
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
    let base_d = dcqcn.first().map_or(f64::NAN, |p| p.goodput_gbps());
    let base_i = irn.first().map_or(f64::NAN, |p| p.goodput_gbps());
    let rescued = rescued(dcqcn, irn);
    for ((d, i), &(seed, resc)) in dcqcn.iter().zip(irn).skip(1).zip(&rescued) {
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
    format!(
        "fault resilience: DCQCN vs IRN on identical sampled schedules (L2BM policy)\n\
         {}\ntotal flows rescued by the lossy universe: {total_rescued}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::Replicate;

    fn cell(transport: RdmaTransport, fault_seed: Option<u64>) -> FaultCell {
        let hybrid = HybridConfig::paper(&ExperimentScale::tiny(), PolicyChoice::l2bm(), 0.4);
        FaultCell {
            hybrid,
            transport,
            fault_seed,
        }
    }

    /// Replicate `r` of a fault cell is the cell run at `seed + r`, as
    /// for hybrid and incast cells (the tournament's chaos arena relies
    /// on it).
    #[test]
    fn fault_cell_replicate_r_runs_at_seed_plus_r() {
        let base = cell(RdmaTransport::Dcqcn, Some(CHAOS_CHECK_SEEDS[0]));
        let reps = run_fault_cells(std::slice::from_ref(&base), &SweepOptions::new(2, 2));
        assert_eq!(reps.len(), 1);
        assert_eq!(reps[0].len(), 2, "two replicates");
        for (r, p) in reps[0].iter().enumerate() {
            let mut reseeded = base.clone();
            reseeded.hybrid.scale.seed += r as u64;
            let want = run_fault_cell(&reseeded);
            assert_eq!(p.results.digest(), want.results.digest(), "replicate {r}");
            assert_eq!(p.cell.hybrid.scale.seed, 42 + r as u64);
        }
        assert_ne!(reps[0][0].results.digest(), reps[0][1].results.digest());
    }

    /// A fault point's violations are filed under its digest label.
    #[test]
    fn sweep_outcome_files_violations_under_the_point_label() {
        let mut p = run_fault_cell(&cell(RdmaTransport::Irn, Some(11)));
        assert_eq!(p.violations, Vec::<String>::new());
        p.violations.push("doctored".into());
        let out = sweep_outcome("t".into(), &[vec![p]], 42);
        assert_eq!(out.digests.len(), 1);
        assert_eq!(out.digests[0].0, "L2BM/IRN faults=Some(11) seed 42");
        assert_eq!(
            out.violations,
            ["L2BM/IRN faults=Some(11) seed 42: doctored"]
        );
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
            &ExperimentScale::tiny(),
            &[RdmaTransport::Dcqcn, RdmaTransport::Irn],
            &CHAOS_CHECK_SEEDS[..2],
        );
        let serial = run_fault_cells(&cells, &SweepOptions::new(1, 1)).concat();
        let parallel = run_fault_cells(&cells, &SweepOptions::new(8, 1)).concat();
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.results.digest(), b.results.digest(), "{}", a.name());
            assert_eq!(a.violations, Vec::<String>::new(), "{}", a.name());
            assert_eq!(b.violations, Vec::<String>::new());
            assert_eq!(a.fault_events > 0, a.cell.fault_seed.is_some());
        }
    }

    /// Golden digest of the tiny-scale IRN universe cell (L2BM, zero
    /// faults), the `L2BM/IRN faults=None seed 42` row of `repro irn
    /// --scale tiny`: pins the IRN transport's behavior the way the DCQCN
    /// goldens pin the lossless path.
    const TINY_IRN_GOLDEN_DIGEST: u64 = 0x3e04_2bb5_1e4d_279f;

    #[test]
    fn tiny_irn_cell_matches_its_golden_digest() {
        let p = run_fault_cell(&cell(RdmaTransport::Irn, None));
        assert_eq!(
            p.results.digest(),
            TINY_IRN_GOLDEN_DIGEST,
            "tiny IRN golden digest drifted: {:#x}",
            p.results.digest()
        );
    }

    #[test]
    fn irn_rescues_a_dcqcn_stranded_flow() {
        // The whole point of IRN: on the eight fixed fault seeds at tiny
        // scale, the lossy universe completes at least one flow DCQCN
        // strands on the identical schedule.
        let cells = resilience_cells(&ExperimentScale::tiny());
        let reps = run_fault_cells(&cells, &SweepOptions::new(2, 1));
        let points: Vec<&FaultPoint> = reps.iter().map(|r| &r[0]).collect();
        let (dcqcn, irn) = points.split_at(1 + CHAOS_CHECK_SEEDS.len());
        for p in &points {
            assert_eq!(p.violations, Vec::<String>::new(), "{}", p.name());
        }
        let rescued: usize = rescued(dcqcn, irn).iter().map(|&(_, n)| n).sum();
        assert!(
            rescued > 0,
            "no DCQCN-stranded flow was rescued by IRN across any fault seed"
        );
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
            fires(&dcqcn, &|p, _| {
                Arc::make_mut(&mut p.results).drops.lossy_packets += 1
            }),
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
            fires(&dcqcn, &|p, _| {
                Arc::make_mut(&mut p.results).rdma_stranded = 1
            }),
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
                Arc::make_mut(&mut p.results).pfc.record_pause();
                ev.totals.pfc_pauses += 1;
            }),
            "IRN universe emitted 1 PFC pause frames",
        );
        only(
            fires(&dcqcn, &|p, _| {
                Arc::make_mut(&mut p.results).queue.past_clamps = 1
            }),
            "1 past-time clamps",
        );
        only(
            fires(&irn, &|p, _| p.fault_events = 0),
            "0 scheduled fault events under fault seed Some(11)",
        );
    }
}
