//! The parallel (spatially sharded) run executor.
//!
//! [`ShardedFabricSim`] splits one run across `N` worker threads, each
//! owning a spatial slice of the fabric (a [`Partition`]): its switches,
//! hosts, flow endpoints and an independent [`EventQueue`] in admission-
//! stamp mode. Shards advance through lockstep windows `[w, w + L)`,
//! cut at grid lines (below), whose width `L` is the partition's
//! lookahead — the minimum propagation delay over cross-shard links —
//! so an event dispatched inside a window can only influence a peer
//! shard at or after the window's end. Cross-shard messages are
//! generated as stamped [`Handoff`]s and admitted by their destination
//! at the next barrier.
//!
//! # Determinism
//!
//! The executor reproduces the serial engine's results *byte for byte*
//! at every shard count (see DESIGN.md §4.10):
//!
//! * **Dispatch order.** Every admission carries a [`Stamp`] replaying
//!   the serial `(time, seq)` insertion order; simultaneous events are
//!   dispatched in stamp order, so each shard pops its slice of the
//!   serial sequence in the serial sequence's order.
//! * **Grid stop.** A finished run ends at the end of the 10 µs grid
//!   cell holding the last completion (`END_GRID` in `world.rs`), in
//!   both engines. Windows never cross a grid line, so the window in
//!   which the done totals reach the flow count lies inside that cell:
//!   every shard then dispatches on to the cell's end and stops there,
//!   having dispatched exactly what the serial engine did. Nothing is
//!   speculative, so nothing is reverted.
//! * **Replicas.** `Sample` events run in every shard (each samples
//!   the switches it owns); the merge counts them once and asserts the
//!   shards agree.

use std::sync::{Arc, Mutex};

use dcn_metrics::FctRecord;
use dcn_net::{Partition, Topology};
use dcn_sim::{
    ambiguous_comparisons, EventQueue, QueueStats, ShardStats, SimTime, Simulation, SpinBarrier,
    StampKey,
};
use dcn_workload::FlowSpec;

use crate::config::{FabricConfig, RdmaTransport};
use crate::results::RunResults;
use crate::wires::Handoff;
use crate::world::{end_of_cell, Event, World};

/// One shard's slot of barrier-shared state. Field use is phased so a
/// slow reader can never observe a peer's next-window write:
/// `done_total` is written before barrier A and read after it;
/// `next_time` is written between barriers A and B and read after B —
/// and a shard only reaches its next `done_total` write after every
/// peer passed B.
#[derive(Default)]
struct Slot {
    done_total: usize,
    next_time: Option<SimTime>,
}

struct Shared {
    barrier: SpinBarrier,
    mailboxes: Vec<Mutex<Vec<Handoff>>>,
    slots: Vec<Mutex<Slot>>,
}

/// What one shard thread returns (its `World` holds an `Rc` trace
/// handle and cannot cross the join, so the thread reduces it to this
/// `Send` summary first).
struct ShardPiece {
    /// Order-independent counters: PFC, drops, occupancy, IRN counters,
    /// liveness diagnostics.
    base: RunResults,
    /// Completion records with their dispatch keys, in this shard's
    /// (already key-sorted) completion order.
    fct: Vec<(StampKey, FctRecord)>,
    unfinished: usize,
    /// Replicated pops (`Sample`, run by every shard).
    replicated: u64,
    queue: QueueStats,
    stats: ShardStats,
}

/// A [`crate::FabricSim`]-shaped simulator that runs one scenario on
/// `shards` cooperating worker threads with deterministic results: the
/// digest of [`ShardedFabricSim::results`] is byte-identical at every
/// shard count *and* to the serial engine's.
///
/// Unsupported (asserted) configurations: the flight recorder (it
/// entangles state across the whole fabric), the flow-liveness
/// watchdog (its timer and the receiver progress it reads can sit in
/// different shards), fault schedules and the IRN transport (no caller
/// runs either sharded).
#[derive(Debug)]
pub struct ShardedFabricSim {
    topo: Topology,
    cfg: FabricConfig,
    part: Arc<Partition>,
    specs: Vec<FlowSpec>,
    results: Option<RunResults>,
}

impl ShardedFabricSim {
    /// Builds the sharded simulator, partitioning `topo` into at most
    /// `shards` spatial shards (clamped to the ToR count).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero, if `cfg` enables the flight recorder
    /// or the flow watchdog, schedules a fault or selects
    /// [`crate::RdmaTransport::Irn`], or on any configuration
    /// [`crate::FabricSim::new`] refuses (an oversized frame, an invalid
    /// fault schedule).
    pub fn new(topo: Topology, cfg: FabricConfig, shards: usize) -> ShardedFabricSim {
        assert!(shards >= 1, "at least one shard");
        cfg.assert_valid(&topo);
        assert!(
            !cfg.trace.enabled,
            "sharded runs do not support the flight recorder"
        );
        assert!(
            cfg.flow_watchdog.is_none(),
            "sharded runs do not support the flow watchdog"
        );
        assert!(
            cfg.faults.is_empty(),
            "sharded runs do not support fault schedules"
        );
        assert!(
            cfg.rdma_transport != RdmaTransport::Irn,
            "sharded runs do not support the IRN transport"
        );
        let part = Arc::new(Partition::new(&topo, shards));
        ShardedFabricSim {
            topo,
            cfg,
            part,
            specs: Vec::new(),
            results: None,
        }
    }

    /// Registers flows (each started at `spec.start` by the shard owning
    /// its source).
    pub fn add_flows(&mut self, specs: impl IntoIterator<Item = FlowSpec>) {
        self.specs.extend(specs);
    }

    /// Runs until `deadline`, or until the end of the 10 µs grid cell
    /// holding the last flow's completion, whichever comes first —
    /// the stop of [`crate::FabricSim::run_until_done`]. Returns whether
    /// all flows completed.
    pub fn run_until_done(&mut self, deadline: SimTime) -> bool {
        let shards = self.part.shards();
        let shared = Shared {
            barrier: SpinBarrier::new(shards),
            mailboxes: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            slots: (0..shards).map(|_| Mutex::new(Slot::default())).collect(),
        };
        let pieces: Vec<ShardPiece> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..shards)
                .map(|s| {
                    let topo = &self.topo;
                    let cfg = &self.cfg;
                    let specs = &self.specs;
                    let part = &self.part;
                    let shared = &shared;
                    scope.spawn(move || {
                        run_shard(s as u32, topo, cfg, specs, part, shared, deadline)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard thread panicked"))
                .collect()
        });
        let r = merge_pieces(pieces);
        let done = r.unfinished_flows == 0;
        self.results = Some(r);
        done
    }

    /// The merged results (clones; the simulator stays inspectable).
    ///
    /// # Panics
    ///
    /// Panics if the run has not happened yet.
    pub fn results(&self) -> RunResults {
        self.results.clone().expect("run_until_done before results")
    }
}

/// One worker: builds its shard's world, then alternates window
/// dispatch with the two-phase barrier protocol until the run ends.
fn run_shard(
    shard: u32,
    topo: &Topology,
    cfg: &FabricConfig,
    specs: &[FlowSpec],
    part: &Arc<Partition>,
    shared: &Shared,
    deadline: SimTime,
) -> ShardPiece {
    let shards = part.shards();
    let total_flows = specs.len();
    let ambiguous_before = ambiguous_comparisons();
    let mut world = World::new(topo.clone(), cfg, Some((part.clone(), shard)));
    let mut q: EventQueue<Event> = EventQueue::new();
    q.enable_stamps();

    // Setup roots mirror the serial engine's admission order exactly:
    // the sample chain first, then each flow's start in registration
    // order. Ordinal 0 stays reserved for the sampler even when sampling
    // is off, and every flow keeps its global ordinal even though only
    // its source's shard schedules it — replicated and local setup
    // events then agree on stamps in every shard.
    if let Some(interval) = cfg.sample_interval {
        q.stamp_next_root(0);
        q.schedule_at(SimTime::ZERO + interval, Event::Sample);
    }
    for (gi, spec) in specs.iter().enumerate() {
        // Registration is replicated (every shard needs the flow's
        // runtime state for whichever endpoints it owns); the start
        // event belongs to the source's shard alone.
        let ix = world.register_flow(*spec);
        if part.shard_of(spec.src) == shard as usize {
            q.stamp_next_root(1 + gi as u32);
            q.schedule_at(spec.start, Event::FlowStart { index: ix });
        }
    }
    // The completions this shard counts toward the global done total.
    let counted_flows = world.counting_flows();

    let lookahead = part.lookahead();
    let mut stats = ShardStats::default();
    let mut inbox: Vec<Handoff> = Vec::new();
    let mut replicated: u64 = 0;
    // The dispatch key of each of the world's FCT records.
    let mut fct_keys: Vec<StampKey> = Vec::new();

    // A run without flows is done before it starts and, as in the
    // serial engine, stops at time zero.
    let mut stop = if total_flows == 0 {
        SimTime::ZERO
    } else {
        deadline
    };
    let mut w_start = SimTime::ZERO;

    loop {
        // Windows never cross a grid line (see the module doc).
        let mut w_end = stop.min(end_of_cell(w_start));
        if let Some(l) = lookahead {
            w_end = w_end.min(w_start + l);
        }

        // Dispatch everything strictly inside the window, simultaneous
        // events in stamp order.
        let mut window_events: u64 = 0;
        loop {
            let members = q.begin_group(w_end);
            if members == 0 {
                break;
            }
            for member in 0..members {
                let Some((at, ev)) = q.dispatch_member(member) else {
                    continue; // cancelled by an earlier member of its group
                };
                window_events += 1;
                if matches!(ev, Event::Sample) {
                    replicated += 1;
                }
                let fct_before = world.fct_records().len();
                world.handle(at, ev, &mut q);
                let records = world.fct_records().len() - fct_before;
                if records > 0 {
                    let key = StampKey {
                        at,
                        stamp: *q.current_stamp(),
                    };
                    fct_keys.extend(std::iter::repeat_n(key, records));
                }
            }
        }
        stats.max_window_events = stats.max_window_events.max(window_events);

        // Publish handoffs (one batch, one lock per destination) and this
        // shard's done total, then barrier A.
        for (dest, batch) in world.outbox().iter_mut().enumerate() {
            if batch.is_empty() {
                continue;
            }
            debug_assert!(
                batch.iter().all(|h| h.at >= w_end),
                "handoff fires inside its source window"
            );
            stats.handoffs_out += batch.len() as u64;
            shared.mailboxes[dest]
                .lock()
                .expect("shard thread panicked")
                .append(batch);
        }
        shared.slots[shard as usize]
            .lock()
            .expect("shard thread panicked")
            .done_total = world.done_flows();
        shared.barrier.wait();
        stats.barriers += 1;

        // Every shard reads the same totals and branches identically.
        let mut global_done = 0usize;
        for s in 0..shards {
            global_done += shared.slots[s]
                .lock()
                .expect("shard thread panicked")
                .done_total;
        }
        if global_done == total_flows {
            // The last completion lies in this window, hence in
            // `w_start`'s grid cell: the serial engine stops at its end.
            stop = stop.min(end_of_cell(w_start));
        }
        if w_end >= stop {
            // Pending events and handoffs fire at or past the stop — the
            // serial engine never dispatched them either.
            break;
        }

        // Admit the peers' handoffs, then agree on the next window.
        std::mem::swap(
            &mut inbox,
            &mut *shared.mailboxes[shard as usize]
                .lock()
                .expect("shard thread panicked"),
        );
        stats.handoffs_in += inbox.len() as u64;
        for h in inbox.drain(..) {
            world.admit_handoff(h, &mut q);
        }
        let local_next = q.peek_time();
        shared.slots[shard as usize]
            .lock()
            .expect("shard thread panicked")
            .next_time = local_next;
        shared.barrier.wait();
        stats.barriers += 1;
        let mut global_next: Option<SimTime> = None;
        for s in 0..shards {
            let t = shared.slots[s]
                .lock()
                .expect("shard thread panicked")
                .next_time;
            global_next = match (global_next, t) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, None) => a,
                (None, b) => b,
            };
        }
        let Some(next) = global_next else {
            break; // every queue drained — nothing can happen again
        };
        // A YAWNS-style jump: windows with no events anywhere are
        // skipped in one hop instead of barriered through one lookahead
        // at a time.
        w_start = w_end.max(next);
    }

    let mut base = RunResults::default();
    world.fold_counters_into(&mut base);
    debug_assert_eq!(
        fct_keys.len(),
        world.fct_records().len(),
        "FCT keys out of sync"
    );
    let fct: Vec<(StampKey, FctRecord)> = fct_keys
        .into_iter()
        .zip(world.fct_records().iter().copied())
        .collect();
    stats.events_processed = q.stats().processed;
    stats.stamp_ambiguities = ambiguous_comparisons() - ambiguous_before;

    ShardPiece {
        unfinished: counted_flows - world.done_flows(),
        base,
        fct,
        replicated,
        queue: q.stats(),
        stats,
    }
}

/// Deterministically merges the shard pieces into serial-identical
/// [`RunResults`].
fn merge_pieces(pieces: Vec<ShardPiece>) -> RunResults {
    let mut r = RunResults::default();

    // FCT records interleave across shards in dispatch-key order — the
    // exact order the serial engine pushed them.
    let mut all_fct: Vec<(StampKey, FctRecord)> =
        pieces.iter().flat_map(|p| p.fct.iter().copied()).collect();
    let ambiguous_before = ambiguous_comparisons();
    all_fct.sort_by(|a, b| a.0.order(&b.0));
    let merge_ambiguities = ambiguous_comparisons() - ambiguous_before;
    for (_, rec) in &all_fct {
        r.fct.push(*rec);
    }

    // Events: each normal pop happened in exactly one shard; replicated
    // pops happened in all of them identically (asserted) and count
    // once.
    let replicated = pieces[0].replicated;
    for p in &pieces {
        assert_eq!(
            p.replicated, replicated,
            "replicated event schedules diverged across shards"
        );
        r.events_processed += p.queue.processed - replicated;
    }
    r.events_processed += replicated;

    for p in pieces {
        r.pfc.merge(&p.base.pfc);
        r.drops.merge(&p.base.drops);
        r.irn.merge(&p.base.irn);
        for (node, series) in p.base.occupancy {
            r.occupancy.insert(node, series);
        }
        r.unfinished_flows += p.unfinished;
        r.rdma_stranded += p.base.rdma_stranded;
        r.flow_stalls += p.base.flow_stalls;
        // Queue stats fold: sums for counters and populations.
        r.queue.pending += p.queue.pending;
        r.queue.max_pending += p.queue.max_pending;
        r.queue.slab_capacity += p.queue.slab_capacity;
        r.queue.processed += p.queue.processed;
        r.queue.past_clamps += p.queue.past_clamps;
        r.queue.timers_pending += p.queue.timers_pending;
        r.queue.timer_cancels += p.queue.timer_cancels;
        r.queue.stale_timer_pops += p.queue.stale_timer_pops;
        r.shards.push(p.stats);
    }
    // The merge compared keys on the calling thread, not a shard's: its
    // count joins the first entry so the sum over `shards` is the run's.
    r.shards[0].stamp_ambiguities += merge_ambiguities;
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FabricSim, PolicyChoice};
    use dcn_net::{ClosConfig, FlowId, NodeId, Priority, TrafficClass};
    use dcn_sim::{BitRate, Bytes, FaultSchedule, SimDuration, Stamp, STAMP_DEPTH};

    fn spec(
        id: u64,
        src: NodeId,
        dst: NodeId,
        size: u64,
        class: TrafficClass,
        start_us: u64,
    ) -> FlowSpec {
        FlowSpec {
            id: FlowId::new(id),
            src,
            dst,
            size: Bytes::new(size),
            start: SimTime::from_micros(start_us),
            class,
            priority: match class {
                TrafficClass::Lossy => Priority::new(1),
                _ => Priority::new(3),
            },
        }
    }

    /// A hybrid mix with plenty of cross-ToR traffic.
    fn hybrid_flows(topo: &Topology, n_flows: u64) -> Vec<FlowSpec> {
        let hosts: Vec<NodeId> = topo.hosts().collect();
        let n = hosts.len();
        (0..n_flows)
            .map(|i| {
                let s = (i as usize * 5 + 1) % n;
                let mut d = (i as usize * 3 + n / 2) % n;
                if d == s {
                    d = (d + 1) % n;
                }
                let class = if i % 2 == 0 {
                    TrafficClass::Lossless
                } else {
                    TrafficClass::Lossy
                };
                spec(
                    i,
                    hosts[s],
                    hosts[d],
                    40_000 + 5_000 * (i % 5),
                    class,
                    (i % 4) * 10,
                )
            })
            .collect()
    }

    fn run_serial(
        topo: &Topology,
        cfg: &FabricConfig,
        flows: &[FlowSpec],
        deadline: SimTime,
    ) -> (bool, RunResults) {
        let mut sim = FabricSim::new(topo.clone(), cfg.clone());
        for f in flows {
            sim.add_flow(*f);
        }
        let done = sim.run_until_done(deadline);
        (done, sim.results())
    }

    fn run_sharded(
        topo: &Topology,
        cfg: &FabricConfig,
        flows: &[FlowSpec],
        shards: usize,
        deadline: SimTime,
    ) -> (bool, RunResults) {
        let mut sim = ShardedFabricSim::new(topo.clone(), cfg.clone(), shards);
        sim.add_flows(flows.iter().copied());
        let done = sim.run_until_done(deadline);
        (done, sim.results())
    }

    /// Digest equality plus the reconciliations the digest doesn't
    /// cover. Returns the serial and the sharded results.
    fn assert_matches_serial(
        topo: &Topology,
        cfg: &FabricConfig,
        flows: &[FlowSpec],
        shards: usize,
        deadline: SimTime,
    ) -> (RunResults, RunResults) {
        let (serial_done, serial) = run_serial(topo, cfg, flows, deadline);
        let (sharded_done, sharded) = run_sharded(topo, cfg, flows, shards, deadline);
        assert_eq!(serial_done, sharded_done, "{shards}-shard done status");
        assert_eq!(
            serial.digest(),
            sharded.digest(),
            "{shards}-shard digest (fct {} vs {}, events {} vs {})",
            serial.fct.len(),
            sharded.fct.len(),
            serial.events_processed,
            sharded.events_processed,
        );
        assert_eq!(serial.fct.records(), sharded.fct.records());
        assert_eq!(serial.events_processed, sharded.events_processed);
        assert_eq!(serial.rdma_stranded, sharded.rdma_stranded);
        assert_eq!(serial.flow_stalls, sharded.flow_stalls);
        assert!(!sharded.shards.is_empty(), "shard stats surfaced");
        (serial, sharded)
    }

    /// Four racks of two hosts, so both 2 and 4 shards partition it:
    /// rack `r` holds hosts `2r` and `2r + 1`, and contiguous racks
    /// share a shard.
    fn four_rack_clos() -> (Topology, Vec<NodeId>) {
        let topo = Topology::clos(&ClosConfig {
            tors: 4,
            aggs: 2,
            hosts_per_tor: 2,
            ..ClosConfig::paper()
        });
        let hosts: Vec<NodeId> = topo.hosts().collect();
        let part = Partition::new(&topo, 4);
        let racks: Vec<usize> = hosts.iter().map(|&h| part.shard_of(h)).collect();
        assert_eq!(racks, [0, 0, 1, 1, 2, 2, 3, 3], "hosts are rack-ordered");
        (topo, hosts)
    }

    #[test]
    #[should_panic(expected = "irn.mtu + irn.header = 70.0KB exceeds")]
    fn oversized_mtu_is_refused_at_construction() {
        let topo = Topology::single_switch(2, BitRate::from_gbps(25), SimDuration::from_micros(1));
        let mut cfg = FabricConfig::default();
        cfg.irn.mtu = 70_000 - cfg.irn.header.as_u64();
        let _ = ShardedFabricSim::new(topo, cfg, 1);
    }

    #[test]
    #[should_panic(expected = "faults[0].link = 99 is not a link of the topology")]
    fn fault_on_an_unknown_link_is_refused_at_construction() {
        let topo = Topology::clos(&ClosConfig::small(2));
        let mut faults = FaultSchedule::none();
        faults.push(
            SimTime::from_micros(1),
            dcn_sim::FaultEvent::LinkDown { link: 99 },
        );
        let cfg = FabricConfig {
            faults,
            ..FabricConfig::default()
        };
        let _ = ShardedFabricSim::new(topo, cfg, 2);
    }

    #[test]
    fn one_shard_single_switch_matches_serial() {
        let topo = Topology::single_switch(6, BitRate::from_gbps(25), SimDuration::from_micros(1));
        let cfg = FabricConfig {
            policy: PolicyChoice::l2bm(),
            ..FabricConfig::default()
        };
        let flows = hybrid_flows(&topo, 10);
        assert_matches_serial(&topo, &cfg, &flows, 1, SimTime::from_millis(100));
    }

    #[test]
    fn clos_matches_serial_at_every_shard_count() {
        let topo = Topology::clos(&ClosConfig::small(4));
        let cfg = FabricConfig {
            policy: PolicyChoice::l2bm(),
            ..FabricConfig::default()
        };
        let flows = hybrid_flows(&topo, 16);
        for shards in [1, 2] {
            assert_matches_serial(&topo, &cfg, &flows, shards, SimTime::from_millis(100));
        }
    }

    /// One shard's counted flows all finish many windows before the
    /// other's while it keeps forwarding.
    #[test]
    fn early_finishing_shard_matches_serial() {
        let (topo, h) = four_rack_clos();
        let cfg = FabricConfig {
            policy: PolicyChoice::l2bm(),
            ..FabricConfig::default()
        };
        use TrafficClass::{Lossless, Lossy};
        let flows = [
            // Counted where they start: racks 0 and 1 are done early.
            spec(0, h[0], h[1], 20_000, Lossy, 0),
            spec(1, h[2], h[3], 20_000, Lossy, 0),
            // Counted where it ends, in rack 3; rack 0 sends it all along.
            spec(2, h[0], h[6], 400_000, Lossless, 0),
            spec(3, h[6], h[7], 30_000, Lossy, 5),
        ];
        for shards in [2, 4] {
            assert_matches_serial(&topo, &cfg, &flows, shards, SimTime::from_millis(100));
        }
    }

    /// Both shards' last completions fall in one window, 100 ns apart,
    /// and a 250 ns sampler ticks on after them: every engine samples to
    /// the end of the last completion's grid cell and stops there.
    #[test]
    fn both_engines_end_on_the_grid_line() {
        let (topo, h) = four_rack_clos();
        let tick = SimDuration::from_nanos(250);
        let cfg = FabricConfig {
            policy: PolicyChoice::l2bm(),
            sample_interval: Some(tick),
            ..FabricConfig::default()
        };
        let first = spec(0, h[0], h[1], 40_000, TrafficClass::Lossy, 0);
        let mut second = spec(1, h[6], h[7], 40_000, TrafficClass::Lossy, 0);
        second.start = SimTime::from_nanos(100);
        for shards in [2, 4] {
            let (serial, sharded) = assert_matches_serial(
                &topo,
                &cfg,
                &[first, second],
                shards,
                SimTime::from_millis(100),
            );
            let finish: Vec<u64> = serial
                .fct
                .records()
                .iter()
                .map(|r| r.finish.as_nanos())
                .collect();
            assert_eq!(finish[1] - finish[0], 100, "a few pops apart");
            let cell_end = end_of_cell(SimTime::from_nanos(finish[1]));
            for (node, series) in &serial.occupancy {
                assert_eq!(series.samples(), sharded.occupancy[node].samples());
                let (last, _) = *series.samples().last().expect("sampled");
                assert!(
                    last < cell_end && last + tick >= cell_end,
                    "last sample {last:?}, cell end {cell_end:?}"
                );
            }
        }
    }

    /// A shard that counts no flow forwards until the run ends.
    #[test]
    fn shard_without_counted_flows_matches_serial() {
        let (topo, h) = four_rack_clos();
        let cfg = FabricConfig {
            policy: PolicyChoice::l2bm(),
            ..FabricConfig::default()
        };
        // Lossless flows are counted where they end: rack 3.
        let flows = [
            spec(0, h[0], h[6], 100_000, TrafficClass::Lossless, 0),
            spec(1, h[1], h[7], 60_000, TrafficClass::Lossless, 3),
        ];
        for shards in [2, 4] {
            let (_, sharded) =
                assert_matches_serial(&topo, &cfg, &flows, shards, SimTime::from_millis(100));
            assert!(
                sharded.shards[0].events_processed > 0,
                "the sender forwards"
            );
        }
    }

    #[test]
    fn deadline_exit_matches_serial() {
        let topo = Topology::clos(&ClosConfig::small(4));
        let cfg = FabricConfig::default();
        // Too much data to finish in 100 µs: the run ends unfinished.
        let flows: Vec<FlowSpec> = hybrid_flows(&topo, 12)
            .into_iter()
            .map(|mut f| {
                f.size = Bytes::new(10_000_000);
                f
            })
            .collect();
        let deadline = SimTime::from_micros(100);
        let (done, serial) = run_serial(&topo, &cfg, &flows, deadline);
        assert!(!done, "deadline exit exercised");
        assert!(serial.unfinished_flows > 0);
        for shards in [1, 2] {
            assert_matches_serial(&topo, &cfg, &flows, shards, deadline);
        }
    }

    #[test]
    #[should_panic(expected = "do not support the flow watchdog")]
    fn watchdog_is_refused() {
        let cfg = FabricConfig {
            flow_watchdog: Some(SimDuration::from_micros(500)),
            ..FabricConfig::default()
        };
        ShardedFabricSim::new(Topology::clos(&ClosConfig::small(4)), cfg, 2);
    }

    #[test]
    #[should_panic(expected = "do not support fault schedules")]
    fn fault_schedule_is_refused() {
        let topo = Topology::clos(&ClosConfig::small(4));
        let mut faults = FaultSchedule::none();
        faults.link_flap(0, SimTime::from_micros(30), SimDuration::from_micros(200));
        let cfg = FabricConfig {
            faults,
            ..FabricConfig::default()
        };
        ShardedFabricSim::new(topo, cfg, 2);
    }

    #[test]
    #[should_panic(expected = "do not support the IRN transport")]
    fn irn_transport_is_refused() {
        let cfg = FabricConfig {
            rdma_transport: RdmaTransport::Irn,
            ..FabricConfig::default()
        };
        ShardedFabricSim::new(Topology::clos(&ClosConfig::small(4)), cfg, 2);
    }

    #[test]
    fn zero_flow_run_matches_serial() {
        let topo = Topology::clos(&ClosConfig::small(2));
        let cfg = FabricConfig::default();
        for shards in [1, 2] {
            let (serial, sharded) =
                assert_matches_serial(&topo, &cfg, &[], shards, SimTime::from_millis(10));
            // Done before it starts: no engine dispatches anything.
            assert_eq!(serial.events_processed, 0);
            assert!(sharded.shards.iter().all(|s| s.events_processed == 0));
        }
    }

    /// Ambiguities are counted per shard thread: what a neighbouring
    /// thread compares while the run is in flight is not the run's.
    #[test]
    fn a_neighbours_ambiguous_comparisons_are_not_the_runs() {
        use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
        // Two chains too deep to store whole that differ only in the
        // part they dropped: every comparison of them is ambiguous.
        let t = SimTime::from_nanos;
        let mut a = Stamp::root(0).child(t(5), 0);
        let mut b = Stamp::root(0).child(t(6), 0);
        for gen in 1..=2 * STAMP_DEPTH as u64 {
            a = a.child(t(100 + gen * 10), 1 + (gen % 2) as u32);
            b = b.child(t(100 + gen * 10), 1 + (gen % 2) as u32);
        }
        let topo = Topology::clos(&ClosConfig::small(4));
        let flows = hybrid_flows(&topo, 16);
        let stop = AtomicBool::new(false);
        let (started, has_started) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            // Compares from before the run starts until after it ends.
            let neighbour = scope.spawn(|| {
                let before = ambiguous_comparisons();
                std::hint::black_box(a.order(&b));
                started.send(()).expect("the test waits for the neighbour");
                while !stop.load(Relaxed) {
                    std::hint::black_box(a.order(&b));
                }
                ambiguous_comparisons() - before
            });
            has_started.recv().expect("neighbour thread panicked");
            let (done, sharded) = run_sharded(
                &topo,
                &FabricConfig::default(),
                &flows,
                2,
                SimTime::from_millis(100),
            );
            stop.store(true, Relaxed);
            assert!(done);
            assert!(neighbour.join().expect("neighbour thread panicked") > 0);
            let counted: u64 = sharded.shards.iter().map(|s| s.stamp_ambiguities).sum();
            assert_eq!(counted, 0, "the run itself compared nothing ambiguous");
        });
    }

    #[test]
    fn requested_shards_clamp_to_tor_count() {
        let topo = Topology::clos(&ClosConfig::small(2));
        let mut sim = ShardedFabricSim::new(topo, FabricConfig::default(), 64);
        sim.run_until_done(SimTime::from_millis(1));
        assert_eq!(sim.results().shards.len(), 2, "small clos has two ToRs");
    }
}
