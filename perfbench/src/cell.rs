//! Runs one cell through the simulator's public API, timed or traced,
//! and sums cells into a workload's raw numbers.
//!
//! A timed run is `*Sim::new` → `add_flows` → `run_until_done` →
//! `results` with tracing and the flight recorder off. A traced run
//! turns the recorder on, drives `FabricSim::run_until` in 50 µs slices
//! and tallies the ring's new records between slices. Everything is
//! recorded here, around calls into public functions; nothing inside
//! the crates changes.

use std::collections::BTreeMap;

use dcn_fabric::{FabricSim, RunResults, ShardedFabricSim};
use dcn_net::TrafficClass;
use dcn_sim::{SimDuration, SimTime, TraceEvent, TraceHandle};

use crate::spans::Spans;
use crate::workloads::Cell;

/// Simulated time per `fabric.run.slice` span of a traced run.
pub const SLICE: SimDuration = SimDuration::from_micros(50);

/// Counts of flight-recorder records, tallied between slices.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Records per `TraceEvent::kind()`.
    pub by_kind: BTreeMap<&'static str, u64>,
    /// `enqueue` records per switch node id.
    pub enqueues_by_node: BTreeMap<u32, u64>,
    /// Records the ring evicted before a slice boundary could count
    /// them. Must stay zero; reported, and fails the run otherwise.
    pub lost: u64,
    /// Records already counted (or lost) in earlier slices.
    seen: u64,
}

impl Tally {
    pub fn kind(&self, kind: &str) -> u64 {
        self.by_kind.get(kind).copied().unwrap_or(0)
    }

    /// Counts the records the ring gained since the last call.
    pub fn absorb(&mut self, trace: &TraceHandle) {
        trace.with(|rec| {
            let held = rec.len() as u64;
            let fresh = rec.evicted() + held - self.seen;
            let countable = fresh.min(held);
            self.lost += fresh - countable;
            for r in rec.records().skip((held - countable) as usize) {
                *self.by_kind.entry(r.event.kind()).or_default() += 1;
                if let TraceEvent::Enqueue { node, .. } = r.event {
                    *self.enqueues_by_node.entry(node).or_default() += 1;
                }
            }
            self.seen += fresh;
        });
    }

    pub fn merge(&mut self, other: &Tally) {
        for (&kind, &n) in &other.by_kind {
            *self.by_kind.entry(kind).or_default() += n;
        }
        for (&node, &n) in &other.enqueues_by_node {
            *self.enqueues_by_node.entry(node).or_default() += n;
        }
        self.lost += other.lost;
    }

    /// Share of all enqueues the busiest switch took.
    pub fn busiest_enqueue_share(&self) -> f64 {
        let total = self.kind("enqueue");
        let max = self.enqueues_by_node.values().copied().max().unwrap_or(0);
        if total == 0 {
            0.0
        } else {
            max as f64 / total as f64
        }
    }
}

/// How to run a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Recorder off, one `run_until_done` call (a timed rep).
    Timed,
    /// Recorder on, one `run_until_done` call: what the recorder alone
    /// costs (`sim.trace.recorder_overhead_ratio`).
    Recorder,
    /// Recorder on, sliced, tallied (the traced rep).
    Traced,
}

/// Wall seconds of one cell's phases, as its spans measured them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Phases {
    pub topology_s: f64,
    pub generate_s: f64,
    pub new_s: f64,
    pub add_flows_s: f64,
    pub run_s: f64,
    pub results_s: f64,
    pub summarize_s: f64,
}

impl Phases {
    pub fn setup_s(&self) -> f64 {
        self.topology_s + self.generate_s + self.new_s + self.add_flows_s
    }

    /// Everything the cell's span covers.
    pub fn cell_s(&self) -> f64 {
        self.setup_s() + self.run_s + self.results_s + self.summarize_s
    }

    fn add(&mut self, o: &Phases) {
        self.topology_s += o.topology_s;
        self.generate_s += o.generate_s;
        self.new_s += o.new_s;
        self.add_flows_s += o.add_flows_s;
        self.run_s += o.run_s;
        self.results_s += o.results_s;
        self.summarize_s += o.summarize_s;
    }
}

/// What `run_hybrid` reads out of a run for its report row.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ModelSummary {
    pub rdma_p99_slowdown: f64,
    pub tcp_p99_slowdown: f64,
    pub tor_occupancy_p99_bytes: f64,
}

/// One cell's outcome.
#[derive(Debug, Clone)]
pub struct CellRun {
    pub results: RunResults,
    pub summary: ModelSummary,
    pub phases: Phases,
    pub flows: usize,
    pub offered_bytes: u64,
    pub nodes: usize,
    pub links: usize,
    /// Simulated time when the run stopped.
    pub sim_end: SimTime,
    /// Traced runs only: the tally, and (wall ns, events) of the slices
    /// before and after the arrival window closed.
    pub tally: Option<Tally>,
    pub window_slices: (u64, u64),
    pub drain_slices: (u64, u64),
}

/// Times one set-up of `cell` (topology, flows, `*Sim::new`,
/// `add_flows`) and drops the simulator.
pub fn time_setup(cell: &Cell, seed: u64, shards: usize) -> f64 {
    let start = std::time::Instant::now();
    let topo = cell.fabric.topology();
    let flows = cell.flows(&topo, seed);
    let cfg = cell.fabric_config(seed, false);
    if shards == 0 {
        let mut sim = FabricSim::new(topo, cfg);
        sim.add_flows(flows);
        std::hint::black_box(&sim);
    } else {
        let mut sim = ShardedFabricSim::new(topo, cfg, shards);
        sim.add_flows(flows);
        std::hint::black_box(&sim);
    }
    start.elapsed().as_secs_f64()
}

/// Runs `cell` and records its spans into `spans`.
///
/// # Panics
///
/// Panics if asked to record or trace a sharded run: `ShardedFabricSim`
/// exposes neither `run_until` nor the recorder.
pub fn run_cell(cell: &Cell, seed: u64, shards: usize, mode: Mode, spans: &mut Spans) -> CellRun {
    assert!(
        shards == 0 || mode == Mode::Timed,
        "the sharded engine has no recorder to trace"
    );
    let mut phases = Phases::default();
    spans.enter("experiments.sweep.cell");
    let (topo, s) = spans.time("net.topology", || cell.fabric.topology());
    phases.topology_s = s;
    let (flows, s) = spans.time("workload.generate", || cell.flows(&topo, seed));
    phases.generate_s = s;
    let cfg = cell.fabric_config(seed, mode != Mode::Timed);
    let window_end = SimTime::ZERO + cell.window;
    let deadline = window_end + cell.drain;
    let first_tor = topo.switches().next().expect("fabric has switches");
    let (nodes, links) = (topo.node_count(), topo.links().len());
    let flow_count = flows.len();
    let offered_bytes = flows.iter().map(|f| f.size.as_u64()).sum();

    let mut tally = None;
    let mut window_slices = (0, 0);
    let mut drain_slices = (0, 0);
    let sim_end;
    let results = if shards > 0 {
        let (mut sim, s) = spans.time("fabric.new", || ShardedFabricSim::new(topo, cfg, shards));
        phases.new_s = s;
        phases.add_flows_s = spans.time("fabric.add_flows", || sim.add_flows(flows)).1;
        phases.run_s = spans.time("fabric.run", || sim.run_until_done(deadline)).1;
        let (results, s) = spans.time("fabric.results", || sim.results());
        phases.results_s = s;
        // The sharded engine keeps no single clock; its last completion
        // is when the run stopped.
        sim_end = results
            .fct
            .records()
            .iter()
            .map(|r| r.finish)
            .max()
            .unwrap_or(deadline);
        results
    } else {
        let (mut sim, s) = spans.time("fabric.new", || FabricSim::new(topo, cfg));
        phases.new_s = s;
        phases.add_flows_s = spans.time("fabric.add_flows", || sim.add_flows(flows)).1;
        spans.enter("fabric.run");
        if mode == Mode::Traced {
            let mut counts = Tally::default();
            let mut horizon = SimTime::ZERO;
            while horizon < deadline && sim.world().done_flows() < flow_count {
                horizon = (horizon + SLICE).min(deadline);
                spans.enter("fabric.run.slice");
                let events = sim.run_until(horizon);
                let wall_ns = (spans.exit() * 1e9) as u64;
                let bucket = if horizon <= window_end {
                    &mut window_slices
                } else {
                    &mut drain_slices
                };
                bucket.0 += wall_ns;
                bucket.1 += events;
                counts.absorb(sim.trace());
            }
            tally = Some(counts);
        } else {
            sim.run_until_done(deadline);
        }
        phases.run_s = spans.exit();
        sim_end = sim.now();
        let (results, s) = spans.time("fabric.results", || sim.results());
        phases.results_s = s;
        results
    };

    let (summary, s) = spans.time("metrics.summarize", || {
        let p99 = |class| {
            results
                .fct
                .slowdown_percentile(class, 0.99)
                .unwrap_or(f64::NAN)
        };
        ModelSummary {
            rdma_p99_slowdown: p99(TrafficClass::Lossless),
            tcp_p99_slowdown: p99(TrafficClass::Lossy),
            tor_occupancy_p99_bytes: results
                .occupancy
                .get(&first_tor)
                .and_then(|series| series.quantile(0.99))
                .unwrap_or(0.0),
        }
    });
    phases.summarize_s = s;
    spans.exit();

    CellRun {
        results,
        summary,
        phases,
        flows: flow_count,
        offered_bytes,
        nodes,
        links,
        sim_end,
        tally,
        window_slices,
        drain_slices,
    }
}

/// FNV-1a over a list of digests: the order-sensitive digest of a
/// multi-cell workload (a single cell's digest stands for itself).
pub fn combine_digests(digests: impl ExactSizeIterator<Item = u64>) -> u64 {
    let mut digests = digests.peekable();
    if digests.len() == 1 {
        return *digests.peek().expect("one digest");
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in digests {
        for byte in d.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Cells summed into the workload-level raw numbers the reports use.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    pub cells: usize,
    pub flows: u64,
    pub unfinished: u64,
    pub offered_bytes: u64,
    pub fct_records: u64,
    pub events: u64,
    pub dispatched: u64,
    pub timer_cancels: u64,
    pub ghost_pops: u64,
    pub max_pending: u64,
    pub slab_slots: u64,
    pub past_clamps: u64,
    pub stale_timer_pops: u64,
    pub rdma_stranded: u64,
    pub pause_frames: u64,
    pub lossy_drops: u64,
    pub lossless_drops: u64,
    pub nodes: u64,
    pub links: u64,
    pub sim_end_us: f64,
    pub digest: u64,
    pub behavior_digest: u64,
    /// The first cell's summary (the sweep's first cell is L2BM at TCP
    /// load 0.2; a single run has one cell).
    pub summary: ModelSummary,
    pub phases: Phases,
    pub tally: Option<Tally>,
    pub window_slices: (u64, u64),
    pub drain_slices: (u64, u64),
    /// Sharded runs: barriers (max over shards), handoffs sent, busiest
    /// shard's share of dispatched events, ambiguous stamp comparisons.
    pub shard_barriers: u64,
    pub shard_handoffs: u64,
    pub shard_max_event_share: f64,
    pub shard_stamp_ambiguities: u64,
}

impl Totals {
    pub fn of(runs: &[CellRun]) -> Totals {
        let mut t = Totals {
            cells: runs.len(),
            digest: combine_digests(runs.iter().map(|r| r.results.digest())),
            behavior_digest: combine_digests(runs.iter().map(|r| r.results.behavior_digest())),
            summary: runs[0].summary,
            nodes: runs[0].nodes as u64,
            links: runs[0].links as u64,
            ..Totals::default()
        };
        for run in runs {
            let r = &run.results;
            t.flows += run.flows as u64;
            t.unfinished += r.unfinished_flows as u64;
            t.offered_bytes += run.offered_bytes;
            t.fct_records += r.fct.len() as u64;
            t.events += r.events_processed;
            t.dispatched += r.queue.processed;
            t.timer_cancels += r.queue.timer_cancels;
            t.ghost_pops += r.queue.ghost_pops;
            t.max_pending = t.max_pending.max(r.queue.max_pending as u64);
            t.slab_slots = t.slab_slots.max(r.queue.slab_capacity as u64);
            t.past_clamps += r.queue.past_clamps;
            t.stale_timer_pops += r.queue.stale_timer_pops;
            t.rdma_stranded += r.rdma_stranded;
            t.pause_frames += r.pause_frames();
            t.lossy_drops += r.drops.lossy_packets;
            t.lossless_drops += r.drops.lossless_packets;
            t.sim_end_us = t.sim_end_us.max(run.sim_end.as_nanos() as f64 / 1e3);
            t.phases.add(&run.phases);
            if let Some(tally) = &run.tally {
                t.tally.get_or_insert_with(Tally::default).merge(tally);
            }
            t.window_slices.0 += run.window_slices.0;
            t.window_slices.1 += run.window_slices.1;
            t.drain_slices.0 += run.drain_slices.0;
            t.drain_slices.1 += run.drain_slices.1;
            let shards = &r.shards;
            t.shard_barriers += shards.iter().map(|s| s.barriers).max().unwrap_or(0);
            t.shard_handoffs += shards.iter().map(|s| s.handoffs_out).sum::<u64>();
            t.shard_stamp_ambiguities += shards.iter().map(|s| s.stamp_ambiguities).sum::<u64>();
            let busiest = shards.iter().map(|s| s.events_processed).max().unwrap_or(0);
            let all: u64 = shards.iter().map(|s| s.events_processed).sum();
            if all > 0 {
                t.shard_max_event_share = busiest as f64 / all as f64;
            }
        }
        t
    }

    /// The checks every child makes on its own output. Empty when the
    /// run is sound.
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        let mut zero = |what: &str, n: u64| {
            if n != 0 {
                v.push(format!("{what} = {n}, must be 0"));
            }
        };
        zero("drops.lossless_packets", self.lossless_drops);
        zero("past_clamps", self.past_clamps);
        zero("stale_timer_pops", self.stale_timer_pops);
        zero("rdma_stranded", self.rdma_stranded);
        zero("unfinished flows", self.unfinished);
        zero(
            "trace records evicted unseen",
            self.tally.as_ref().map_or(0, |t| t.lost),
        );
        if self.fct_records + self.unfinished != self.flows {
            v.push(format!(
                "{} FCT records + {} unfinished != {} flows offered",
                self.fct_records, self.unfinished, self.flows
            ));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Fabric, GOLDEN_SEED, RDMA_LOAD, TCP_LOAD};
    use dcn_experiments::{run_hybrid, ExperimentScale, HybridConfig};
    use dcn_fabric::PolicyChoice;
    use dcn_sim::TraceConfig;

    /// `ExperimentScale::tiny()` with a 1 ms window, as a cell.
    fn tiny() -> Cell {
        Cell {
            fabric: Fabric::ClosTiny,
            policy: PolicyChoice::l2bm(),
            tcp_load: TCP_LOAD,
            window: SimDuration::from_millis(1),
            drain: SimDuration::from_millis(100),
        }
    }

    fn run(seed: u64, mode: Mode) -> CellRun {
        run_cell(&tiny(), seed, 0, mode, &mut Spans::new(0))
    }

    #[test]
    fn traced_smoke_sees_every_record_and_matches_untraced_behaviour() {
        for seed in [GOLDEN_SEED, 7] {
            let timed = run(seed, Mode::Timed);
            let traced = run(seed, Mode::Traced);
            let tally = traced.tally.as_ref().expect("traced runs tally");
            assert_eq!(tally.lost, 0, "ring records evicted unseen");
            // L2BM never evicts, so once drained every admitted packet left.
            assert!(tally.kind("enqueue") > 1_000);
            assert_eq!(tally.kind("enqueue"), tally.kind("dequeue"));
            assert!(tally.busiest_enqueue_share() > 0.0 && tally.busiest_enqueue_share() <= 1.0);
            assert_eq!(
                traced.results.behavior_digest(),
                timed.results.behavior_digest()
            );
            // Slicing may run past the completing event, never short of it.
            assert!(traced.results.events_processed >= timed.results.events_processed);
            assert!(traced.window_slices.1 > 0 && traced.drain_slices.1 > 0);
            assert!(timed.tally.is_none());
            assert_eq!(
                run(seed, Mode::Recorder).results.digest(),
                timed.results.digest(),
                "the recorder alone changes nothing, not even the event count"
            );
            let totals = Totals::of(&[traced]);
            assert_eq!(totals.violations(), Vec::<String>::new());
            assert_eq!(totals.flows, totals.fct_records);
        }
    }

    #[test]
    fn golden_seed_cell_is_the_cell_run_hybrid_runs() {
        let theirs = run_hybrid(&HybridConfig {
            scale: ExperimentScale::tiny().with_window(SimDuration::from_millis(1)),
            policy: PolicyChoice::l2bm(),
            rdma_load: RDMA_LOAD,
            tcp_load: TCP_LOAD,
        });
        let ours = run(GOLDEN_SEED, Mode::Timed);
        assert_eq!(ours.results.digest(), theirs.results.digest());
        assert_eq!(ours.summary.rdma_p99_slowdown, theirs.rdma_p99_slowdown);
        assert_eq!(ours.summary.tcp_p99_slowdown, theirs.tcp_p99_slowdown);
        assert_eq!(
            ours.summary.tor_occupancy_p99_bytes,
            theirs.tor_occupancy_p99
        );
    }

    #[test]
    fn other_seeds_move_endpoints_and_keep_sizes_and_arrivals() {
        let topo = Fabric::ClosTiny.topology();
        let golden = tiny().flows(&topo, GOLDEN_SEED);
        let other = tiny().flows(&topo, 7);
        assert_eq!(tiny().flows(&topo, 7), other, "same seed, same inputs");
        let shape = |flows: &[dcn_workload::FlowSpec]| -> Vec<_> {
            flows
                .iter()
                .map(|f| (f.id, f.size, f.start, f.class))
                .collect()
        };
        assert_eq!(shape(&golden), shape(&other));
        let ends = |flows: &[dcn_workload::FlowSpec]| -> Vec<_> {
            flows.iter().map(|f| (f.src, f.dst)).collect()
        };
        assert_ne!(ends(&golden), ends(&other));
        // The RDMA and TCP halves of each rack stay what they were.
        let senders = |flows: &[dcn_workload::FlowSpec], class| {
            flows
                .iter()
                .filter(|f| f.class == class)
                .flat_map(|f| [f.src, f.dst])
                .collect::<std::collections::BTreeSet<_>>()
        };
        for flows in [&golden, &other] {
            let rdma = senders(flows, TrafficClass::Lossless);
            let tcp = senders(flows, TrafficClass::Lossy);
            assert!(rdma.is_disjoint(&tcp));
        }
    }

    #[test]
    fn tally_counts_fresh_records_once_and_reports_unseen_evictions() {
        let trace = TraceHandle::from_config(&TraceConfig {
            enabled: true,
            capacity: 4,
            ..TraceConfig::default()
        });
        let record = |n: u32| {
            for i in 0..n {
                trace.record_with(SimTime::ZERO, || TraceEvent::PfcPause {
                    node: i,
                    port: 0,
                    prio: 3,
                });
            }
        };
        let mut tally = Tally::default();
        record(3);
        tally.absorb(&trace);
        tally.absorb(&trace);
        assert_eq!((tally.kind("pfc_pause"), tally.lost), (3, 0));
        // Six more into a ring of four: two are gone before we look.
        record(6);
        tally.absorb(&trace);
        assert_eq!((tally.kind("pfc_pause"), tally.lost), (7, 2));
        let mut sum = Tally::default();
        sum.merge(&tally);
        sum.merge(&tally);
        assert_eq!((sum.kind("pfc_pause"), sum.lost), (14, 4));
    }

    #[test]
    fn one_digest_stands_for_itself_and_many_are_order_sensitive() {
        assert_eq!(combine_digests([7u64].into_iter()), 7);
        let ab = combine_digests([1u64, 2].into_iter());
        assert_ne!(ab, combine_digests([2u64, 1].into_iter()));
        assert_eq!(ab, combine_digests([1u64, 2].into_iter()));
    }
}
