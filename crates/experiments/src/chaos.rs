//! Chaos mode: seeded random fault schedules over the hybrid workload,
//! with an invariant battery asserted after every run.
//!
//! Each chaos cell runs the fig. 7 hybrid traffic mix under a fault
//! schedule sampled from a seed — link flaps, corruption windows and
//! stuck PFC pauses — then checks that the fabric's core invariants
//! survived: per-switch buffer conservation, PFC/trace reconciliation,
//! termination, and that every flow not victimised by a lossless-class
//! loss still completes. Violations are collected as strings (never
//! panics), so one broken run cannot poison a parallel sweep worker.
//!
//! Fault schedules are sampled *before* the simulation starts from a
//! dedicated RNG, and the runs themselves are deterministic, so every
//! cell's digest is bit-identical at any `--jobs` value — the same
//! contract the figure sweeps rely on.

use dcn_fabric::{FabricConfig, FabricSim, PolicyChoice};
use dcn_net::{NodeId, Topology, TrafficClass};
use dcn_sim::{par_map, FaultSchedule, SimDuration, SimRng, SimTime, TraceConfig};
use dcn_workload::{web_search_cdf, FlowSpec, PoissonTraffic};

use crate::hybrid::{split_hosts, RDMA_PRIO, TCP_PRIO};
use crate::report::{fmt_f64, Table};
use crate::scale::ExperimentScale;

/// PFC storm-watchdog threshold every chaos run arms. Long enough that
/// legitimate congestion pauses at these scales resolve first; short
/// enough to demonstrably bound an injected stuck XOFF within a run.
pub const CHAOS_WATCHDOG: SimDuration = SimDuration::from_millis(1);

/// The fixed fault-schedule seeds `repro chaos --check` (and CI) runs.
pub const CHAOS_CHECK_SEEDS: [u64; 8] = [11, 23, 37, 41, 53, 67, 79, 97];

/// One chaos cell: a policy under a sampled fault schedule (or the
/// zero-fault baseline when `fault_seed` is `None`).
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// The scale (topology, window, workload seed).
    pub scale: ExperimentScale,
    /// Buffer-management policy under test.
    pub policy: PolicyChoice,
    /// Seed the fault schedule is sampled from; `None` injects nothing.
    pub fault_seed: Option<u64>,
    /// Load of the RDMA half (fig. 7 hybrid mix).
    pub rdma_load: f64,
    /// Load of the TCP half.
    pub tcp_load: f64,
}

impl ChaosConfig {
    /// The standard chaos cell: fig. 7 hybrid mix at RDMA 0.4 / TCP 0.4.
    pub fn new(scale: ExperimentScale, policy: PolicyChoice, fault_seed: Option<u64>) -> Self {
        ChaosConfig {
            scale,
            policy,
            fault_seed,
            rdma_load: 0.4,
            tcp_load: 0.4,
        }
    }
}

/// Everything one chaos run reports. Plain data (`Send`): the trace is
/// interrogated inside the worker, never shipped across threads.
#[derive(Debug, Clone)]
pub struct ChaosPoint {
    /// Policy label (DT / DT2 / ABM / L2BM).
    pub label: String,
    /// The fault seed (`None` = zero-fault baseline).
    pub fault_seed: Option<u64>,
    /// Scheduled fault events in this cell.
    pub fault_events: usize,
    /// Full-run digest (compared across `--jobs` values).
    pub digest: u64,
    /// Registered flows.
    pub total_flows: usize,
    /// Flows that completed before the deadline.
    pub completed: usize,
    /// Flows that lost at least one lossless-class packet (DCQCN has no
    /// retransmission, so these may legitimately never finish).
    pub victims: usize,
    /// Delivered goodput over the traffic window, Gbit/s (completed
    /// flows' payload bytes over the window).
    pub goodput_gbps: f64,
    /// p99 FCT slowdown of completed TCP flows.
    pub tcp_p99_slowdown: f64,
    /// p99 FCT slowdown of completed RDMA flows.
    pub rdma_p99_slowdown: f64,
    /// PFC pause frames over the run.
    pub pause_frames: u64,
    /// Watchdog forced resumes over the run.
    pub watchdog_fires: u64,
    /// Lossless packets dropped (0 unless faults victimise flows).
    pub lossless_drops: u64,
    /// Lossy packets dropped.
    pub lossy_drops: u64,
    /// Invariant violations (empty = the battery passed).
    pub violations: Vec<String>,
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

/// Runs one chaos cell and asserts the invariant battery.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosPoint {
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
    let fault_events = faults.len();

    let mut switch = cfg.scale.switch_config();
    switch.pfc_watchdog = Some(CHAOS_WATCHDOG);
    let fabric_cfg = FabricConfig {
        policy: cfg.policy,
        seed: cfg.scale.seed,
        switch,
        sample_interval: None,
        trace: TraceConfig::enabled(),
        faults,
        ..FabricConfig::default()
    };
    let mut sim = FabricSim::new(topo, fabric_cfg);
    sim.add_flows(flows.iter().copied());
    let deadline = SimTime::ZERO + cfg.scale.window + cfg.scale.drain;
    let all_done = sim.run_until_done(deadline);
    let r = sim.results();

    let mut violations: Vec<String> = Vec::new();

    // (1) Buffer conservation on every switch, after faults and drains.
    let switch_ids: Vec<NodeId> = sim.world().topology().switches().collect();
    for id in switch_ids {
        if let Some(sw) = sim.world().switch(id) {
            if let Err(e) = sw.mmu().check_conservation() {
                violations.push(format!("switch {id}: conservation broken: {e}"));
            }
        }
    }

    // (2) Trace totals reconcile exactly with the merged run counters.
    // Victims come from the recorder's never-evicted aggregate set, not
    // a ring scan: a long run can wrap the ring past the drop records,
    // which would silently shrink the victim set and false-positive the
    // unfinished ⊆ victims check below.
    let (totals, victim_flows) = sim
        .trace()
        .with(|rec| (rec.totals(), rec.lossless_victims().clone()))
        .expect("chaos runs always trace");
    if totals.drops() != r.drops.lossy_packets + r.drops.lossless_packets {
        violations.push(format!(
            "trace drops {} != counter drops {}",
            totals.drops(),
            r.drops.lossy_packets + r.drops.lossless_packets
        ));
    }
    if totals.pfc_pauses != r.pfc.pause_frames() {
        violations.push(format!(
            "trace pauses {} != counter pauses {}",
            totals.pfc_pauses,
            r.pfc.pause_frames()
        ));
    }
    if totals.pfc_resumes != r.pfc.resume_frames() {
        violations.push(format!(
            "trace resumes {} != counter resumes {}",
            totals.pfc_resumes,
            r.pfc.resume_frames()
        ));
    }
    if totals.watchdog_fires != r.pfc.watchdog_fires() {
        violations.push(format!(
            "trace watchdog fires {} != counter fires {}",
            totals.watchdog_fires,
            r.pfc.watchdog_fires()
        ));
    }

    // (3) No silent defects: injected faults must never hit the
    // defensive wiring-defect paths, and no DCQCN sender may ever be
    // stranded with zero credit — wire loss makes flows *victims*,
    // not stranded senders, so a nonzero count is a pacing bug.
    if totals.defects != 0 {
        violations.push(format!("{} defect events recorded", totals.defects));
    }
    if r.rdma_stranded != 0 {
        violations.push(format!("{} stranded DCQCN senders", r.rdma_stranded));
    }

    // (4) Scheduler-timer parity: wheel timers fire at their exact
    // deadline even under fault storms, so no event is ever clamped
    // forward to "now" and no cancelled timer ever pops. A nonzero
    // count here means a handler armed a deadline in the past (or a
    // cancellation leaked), which silently reorders the schedule.
    if r.queue.past_clamps != 0 {
        violations.push(format!(
            "{} past-time clamps (timers must never fire late)",
            r.queue.past_clamps
        ));
    }
    if r.queue.stale_timer_pops != 0 {
        violations.push(format!(
            "{} stale timer pops (cancelled timers must never fire)",
            r.queue.stale_timer_pops
        ));
    }

    // (5) Every non-victim flow completes. Victims are flows that lost
    // a lossless-class packet (no retransmission exists for them);
    // everything else — all TCP, undamaged RDMA — must finish inside
    // the drain.
    let completed: std::collections::HashSet<u64> =
        r.fct.records().iter().map(|x| x.flow.as_u64()).collect();
    for spec in &flows {
        let id = spec.id.as_u64();
        if !completed.contains(&id) && !victim_flows.contains(&id) {
            violations.push(format!(
                "flow {id} ({:?}) unfinished without being a loss victim",
                spec.class
            ));
        }
    }
    if cfg.fault_seed.is_none() {
        // The baseline must be entirely healthy.
        if !all_done {
            violations.push("zero-fault baseline left flows unfinished".into());
        }
        if r.drops.lossless_packets != 0 {
            violations.push(format!(
                "zero-fault baseline dropped {} lossless packets",
                r.drops.lossless_packets
            ));
        }
        if r.pfc.watchdog_fires() != 0 {
            violations.push("zero-fault baseline fired the watchdog".into());
        }
    }

    let delivered: u64 = r.fct.records().iter().map(|x| x.size.as_u64()).sum();
    let goodput_gbps = delivered as f64 * 8.0 / cfg.scale.window.as_secs_f64() / 1e9;

    ChaosPoint {
        label: cfg.policy.label(),
        fault_seed: cfg.fault_seed,
        fault_events,
        digest: r.digest(),
        total_flows: flows.len(),
        completed: completed.len(),
        victims: victim_flows.len(),
        goodput_gbps,
        tcp_p99_slowdown: r
            .fct
            .slowdown_percentile(TrafficClass::Lossy, 0.99)
            .unwrap_or(f64::NAN),
        rdma_p99_slowdown: r
            .fct
            .slowdown_percentile(TrafficClass::Lossless, 0.99)
            .unwrap_or(f64::NAN),
        pause_frames: r.pfc.pause_frames(),
        watchdog_fires: r.pfc.watchdog_fires(),
        lossless_drops: r.drops.lossless_packets,
        lossy_drops: r.drops.lossy_packets,
        violations,
    }
}

/// Runs chaos cells across worker threads. Output order is input order,
/// and every cell is bit-identical at any `jobs` value.
pub fn run_chaos_cells(cells: &[ChaosConfig], jobs: usize) -> Vec<ChaosPoint> {
    par_map(jobs, cells, run_chaos)
}

/// The chaos sweep: per policy, a zero-fault baseline plus one cell per
/// fault seed.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// One baseline point per policy (input order of `policies`).
    pub baselines: Vec<ChaosPoint>,
    /// Chaos points, grouped per policy in seed order.
    pub points: Vec<Vec<ChaosPoint>>,
}

impl ChaosReport {
    /// Every invariant violation across all cells (empty = pass).
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for p in self.baselines.iter().chain(self.points.iter().flatten()) {
            for v in &p.violations {
                out.push(format!("{} seed {:?}: {v}", p.label, p.fault_seed));
            }
        }
        out
    }

    /// Renders the degradation table: goodput and tail-FCT under chaos
    /// relative to each policy's own zero-fault baseline.
    pub fn render(&self) -> String {
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
        for (base, runs) in self.baselines.iter().zip(self.points.iter()) {
            let mean = |f: &dyn Fn(&ChaosPoint) -> f64| -> f64 {
                let vals: Vec<f64> = runs.iter().map(f).filter(|v| v.is_finite()).collect();
                if vals.is_empty() {
                    f64::NAN
                } else {
                    vals.iter().sum::<f64>() / vals.len() as f64
                }
            };
            let goodput = mean(&|p: &ChaosPoint| p.goodput_gbps);
            let delta = (goodput - base.goodput_gbps) / base.goodput_gbps * 100.0;
            let victims: usize = runs.iter().map(|p| p.victims).sum();
            let watchdog: u64 = runs.iter().map(|p| p.watchdog_fires).sum();
            let violations: usize =
                runs.iter().map(|p| p.violations.len()).sum::<usize>() + base.violations.len();
            t.row(vec![
                base.label.clone(),
                fmt_f64(base.goodput_gbps),
                fmt_f64(goodput),
                fmt_f64(delta),
                fmt_f64(base.tcp_p99_slowdown),
                fmt_f64(mean(&|p: &ChaosPoint| p.tcp_p99_slowdown)),
                fmt_f64(base.rdma_p99_slowdown),
                fmt_f64(mean(&|p: &ChaosPoint| p.rdma_p99_slowdown)),
                victims.to_string(),
                watchdog.to_string(),
                violations.to_string(),
            ]);
        }
        format!(
            "chaos: hybrid workload under {} sampled fault schedules per policy\n{}",
            self.points.first().map_or(0, Vec::len),
            t.render()
        )
    }
}

/// Runs the chaos sweep for every arena policy (all six) over
/// `fault_seeds`.
pub fn chaos(scale: &ExperimentScale, fault_seeds: &[u64], jobs: usize) -> ChaosReport {
    let policies = crate::all_policies();
    let mut cells: Vec<ChaosConfig> = Vec::new();
    for &policy in &policies {
        cells.push(ChaosConfig::new(scale.clone(), policy, None));
        for &seed in fault_seeds {
            cells.push(ChaosConfig::new(scale.clone(), policy, Some(seed)));
        }
    }
    let mut results = run_chaos_cells(&cells, jobs);
    let mut baselines = Vec::with_capacity(policies.len());
    let mut points = Vec::with_capacity(policies.len());
    let per_policy = 1 + fault_seeds.len();
    for _ in &policies {
        let rest = results.split_off(per_policy);
        let mut group = std::mem::replace(&mut results, rest);
        let chaos_runs = group.split_off(1);
        baselines.push(group.pop().expect("baseline cell"));
        points.push(chaos_runs);
    }
    ChaosReport { baselines, points }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn zero_fault_cell_passes_the_battery() {
        let cfg = ChaosConfig::new(ExperimentScale::tiny(), PolicyChoice::l2bm(), None);
        let p = run_chaos(&cfg);
        assert_eq!(p.violations, Vec::<String>::new());
        assert_eq!(p.fault_events, 0);
        assert_eq!(p.completed, p.total_flows);
        assert_eq!(p.victims, 0);
        assert_eq!(p.watchdog_fires, 0);
    }

    #[test]
    fn chaos_cells_pass_battery_and_are_jobs_invariant() {
        let cells: Vec<ChaosConfig> = CHAOS_CHECK_SEEDS[..2]
            .iter()
            .map(|&s| ChaosConfig::new(ExperimentScale::tiny(), PolicyChoice::l2bm(), Some(s)))
            .collect();
        let serial = run_chaos_cells(&cells, 1);
        let parallel = run_chaos_cells(&cells, 8);
        for (a, b) in serial.iter().zip(parallel.iter()) {
            assert_eq!(a.digest, b.digest, "chaos digest must be jobs-invariant");
            assert_eq!(a.violations, Vec::<String>::new(), "battery must pass");
            assert_eq!(b.violations, Vec::<String>::new());
            assert!(a.fault_events > 0);
        }
    }
}
