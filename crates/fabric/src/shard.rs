//! The parallel (spatially sharded) run executor.
//!
//! [`ShardedFabricSim`] splits one run across `N` worker threads, each
//! owning a spatial slice of the fabric (a [`Partition`]): its switches,
//! hosts, flow endpoints and an independent [`EventQueue`] in admission-
//! stamp mode. Shards advance through lockstep windows `[w, w + L)`
//! whose width `L` is the partition's lookahead — the minimum
//! propagation delay over cross-shard links — so an event dispatched
//! inside a window can only influence a peer shard at or after the
//! window's end. Cross-shard messages are generated as stamped
//! [`Handoff`]s and admitted by their destination at the next barrier.
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
//! * **Stop key.** The serial run stops right after the pop that
//!   completes the last flow. At the barrier where the done totals
//!   reach the flow count, every shard computes the completing pop's
//!   `(time, stamp)` key — the maximum done key of the window — and
//!   filters everything it speculatively dispatched past it: journaled
//!   counter deltas are subtracted, tail FCT records and occupancy
//!   samples dropped, and the event count corrected. Only the pops a
//!   shard dispatches after its own last counted completion are
//!   journaled: one dispatched while the shard still owes a completion
//!   is at or before that completion's key, hence the stop key.
//! * **Replicas.** `Sample` and `Fault` events run in every shard
//!   (occupancy and link state are shard-local and replicated
//!   respectively); the merge counts them once and asserts the shards
//!   agree.

use std::cmp::Ordering;
use std::sync::{Arc, Mutex};

use dcn_metrics::FctRecord;
use dcn_net::{Partition, Topology};
use dcn_sim::{
    ambiguous_comparisons, EventQueue, QueueStats, ShardStats, SimTime, Simulation, SpinBarrier,
    StampKey,
};
use dcn_workload::FlowSpec;

use crate::config::FabricConfig;
use crate::results::RunResults;
use crate::wires::Handoff;
use crate::world::{Event, PopCounters, World};

/// How a dispatched event counts toward the merged event total.
#[derive(Clone, Copy, PartialEq, Eq)]
enum PopKind {
    /// Dispatched by exactly one shard.
    Normal,
    /// A replicated occupancy-sampling tick (also reverts one occupancy
    /// sample per owned switch when filtered).
    Sample,
    /// A replicated fault application.
    Fault,
}

impl PopKind {
    fn of(ev: &Event) -> PopKind {
        match ev {
            Event::Sample => PopKind::Sample,
            Event::Fault { .. } => PopKind::Fault,
            _ => PopKind::Normal,
        }
    }
}

/// Pops known to be at or before the stop key, by how the merge counts
/// them.
#[derive(Default)]
struct Banked {
    normal: u64,
    replicated: u64,
}

impl Banked {
    fn add(&mut self, kind: PopKind) {
        match kind {
            PopKind::Normal => self.normal += 1,
            PopKind::Sample | PopKind::Fault => self.replicated += 1,
        }
    }
}

/// One shard's slot of barrier-shared state. Field use is phased so a
/// slow reader can never observe a peer's next-window write: `*done*`
/// are written before barrier A and read after it; `next_time` is
/// written between barriers A and B and read after B — and a shard only
/// reaches its next `*done*` write after every peer passed B.
#[derive(Default)]
struct Slot {
    /// Key of the shard's last completion in the window just dispatched
    /// (its greatest: a shard pops in key order).
    max_done: Option<StampKey>,
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
    /// Stop-key-filtered order-independent counters: PFC, drops,
    /// occupancy, IRN counters, liveness diagnostics.
    base: RunResults,
    /// Stop-key-filtered completion records with their dispatch keys,
    /// in this shard's (already key-sorted) completion order.
    fct: Vec<(StampKey, FctRecord)>,
    unfinished: usize,
    banked: Banked,
    queue: QueueStats,
    stats: ShardStats,
}

/// A [`crate::FabricSim`]-shaped simulator that runs one scenario on
/// `shards` cooperating worker threads with deterministic results: the
/// digest of [`ShardedFabricSim::results`] is byte-identical at every
/// shard count *and* to the serial engine's.
///
/// Unsupported (asserted) configurations: the flight recorder (it
/// entangles state across the whole fabric) and the flow-liveness
/// watchdog (its timer and the receiver progress it reads can sit in
/// different shards).
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
    /// or the flow watchdog, or on any configuration
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
        let part = Arc::new(Partition::new(&topo, shards));
        ShardedFabricSim {
            topo,
            cfg,
            part,
            specs: Vec::new(),
            results: None,
        }
    }

    /// Effective shard count (≤ requested; at most one shard per ToR).
    pub fn shards(&self) -> usize {
        self.part.shards()
    }

    /// Registers a flow (started at `spec.start` by the shard owning
    /// its source).
    pub fn add_flow(&mut self, spec: FlowSpec) {
        self.specs.push(spec);
    }

    /// Registers many flows.
    pub fn add_flows(&mut self, specs: impl IntoIterator<Item = FlowSpec>) {
        self.specs.extend(specs);
    }

    /// Runs until every registered flow has completed or `deadline`
    /// passes, whichever the serial engine would have hit first.
    /// Returns whether all flows completed.
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
    // the sample chain first, then the fault schedule, then each flow's
    // start in registration order. Ordinal 0 stays reserved for the
    // sampler even when sampling is off, and every flow keeps its
    // global ordinal even though only its source's shard schedules it —
    // replicated and local setup events then agree on stamps in every
    // shard.
    if let Some(interval) = cfg.sample_interval {
        q.stamp_next_root(0);
        q.schedule_at(SimTime::ZERO + interval, Event::Sample);
    }
    for (i, sf) in cfg.faults.events().iter().enumerate() {
        q.stamp_next_root(1 + i as u32);
        q.schedule_at(sf.at, Event::Fault { fault: sf.fault });
    }
    let flow_root_base = 1 + cfg.faults.events().len() as u32;
    for (gi, spec) in specs.iter().enumerate() {
        // Registration is replicated (every shard needs the flow's
        // runtime state for whichever endpoints it owns); the start
        // event belongs to the source's shard alone.
        let ix = world.register_flow(*spec);
        if part.shard_of(spec.src) == shard as usize {
            q.stamp_next_root(flow_root_base + gi as u32);
            q.schedule_at(spec.start, Event::FlowStart { index: ix });
        }
    }
    // The completions this shard counts. While it still owes one, every
    // pop it dispatches is kept (see the dispatch loop).
    let owed_flows = world.counting_flows();

    let lookahead = part.lookahead();
    let mut stats = ShardStats::default();
    let mut inbox: Vec<Handoff> = Vec::new();

    // Window-local journals of the pops dispatched once nothing is owed,
    // cleared at every continuing barrier (the stop key can only land in
    // the run's final window).
    let mut deltas: Vec<(StampKey, PopCounters)> = Vec::new();
    let mut pops: Vec<(StampKey, PopKind)> = Vec::new();
    // Key of this window's newest completion — its greatest, since a
    // shard pops in key order.
    let mut max_done: Option<StampKey> = None;
    // Run-long journal parallel to the world's FCT records.
    let mut fct_keys: Vec<StampKey> = Vec::new();

    let mut banked = Banked::default();

    let mut w_start = SimTime::ZERO;
    let mut done = false;
    let mut stop_key: Option<StampKey> = None;

    // A solo run (one shard owns the whole fabric) has no peer to wait
    // for, so it stops at the exact completing pop like the serial
    // engine instead of speculating on to the deadline.
    let solo = shards == 1;

    'windows: loop {
        let w_end = match lookahead {
            Some(l) => deadline.min(w_start + l),
            None => deadline,
        };

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
                let kind = PopKind::of(&ev);
                let fct_before = world.fct_records().len();
                let done_before = world.done_flows();
                // Owed-completion rule: this shard pops in key order, so
                // while it has a completion still to come, this pop's key
                // is at or before that completion's, which the stop key —
                // the greatest done key of the run — can only equal or
                // exceed. The pop is kept whatever the peers do. Once
                // nothing is owed, a peer's completion may put the stop
                // key before the pop: snapshot what reverting it takes.
                let snap = (done_before == owed_flows).then(|| world.snap(&ev));
                world.handle(at, ev, &mut q);
                let records = world.fct_records().len() - fct_before;
                let completed = world.done_flows() > done_before;
                if snap.is_none() && records == 0 && !completed {
                    // The common pop: banked, its stamp never copied.
                    banked.add(kind);
                    continue;
                }
                let key = StampKey {
                    at,
                    stamp: *q.current_stamp(),
                };
                fct_keys.extend(std::iter::repeat_n(key, records));
                let Some(snap) = snap else {
                    banked.add(kind);
                    if completed {
                        max_done = Some(key);
                        if solo && world.done_flows() == total_flows {
                            // The serial engine stops right after this pop.
                            done = true;
                            stop_key = Some(key);
                            stats.max_window_events = stats.max_window_events.max(window_events);
                            break 'windows;
                        }
                    }
                    continue;
                };
                stats.journaled_pops += 1;
                if let Some(d) = world.delta_since(snap) {
                    deltas.push((key, d));
                }
                pops.push((key, kind));
            }
        }
        stats.max_window_events = stats.max_window_events.max(window_events);

        // Publish handoffs (one batch, one lock per destination) and this
        // window's last completion, then barrier A.
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
        {
            let mut slot = shared.slots[shard as usize]
                .lock()
                .expect("shard thread panicked");
            slot.max_done = max_done.take();
            slot.done_total = world.done_flows();
        }
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
            // The run completes in this window. The serial engine
            // stopped right after the completing pop — the greatest of
            // the shards' last done keys (`None` only for a zero-flow
            // run, which the serial engine exits before processing
            // anything).
            for s in 0..shards {
                let slot = shared.slots[s].lock().expect("shard thread panicked");
                if let Some(k) = &slot.max_done {
                    if stop_key.as_ref().is_none_or(|cur| cur.order(k).is_lt()) {
                        stop_key = Some(*k);
                    }
                }
            }
            done = true;
            break 'windows;
        }

        // Continuing: everything this window dispatched is in the
        // serial run's past for certain — bank it and clear journals.
        for &(_, kind) in &pops {
            banked.add(kind);
        }
        pops.clear();
        deltas.clear();

        if w_end >= deadline {
            // Deadline exit. Pending handoffs fire at ≥ deadline — the
            // serial engine would never have dispatched them either.
            break 'windows;
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
            break 'windows; // every queue drained — nothing can happen again
        };
        // A YAWNS-style jump: windows with no events anywhere are
        // skipped in one hop instead of barriered through one lookahead
        // at a time.
        w_start = w_end.max(next);
    }

    // ---- end-of-run filtering ----------------------------------------

    let mut dropped_samples = 0usize;
    let mut reverted: Vec<PopCounters> = Vec::new();
    let mut fct_keep = fct_keys.len();
    if done {
        // Keep exactly what the serial engine processed: keys at or
        // before the stop key. (`stop_key` is `None` only for the
        // zero-flow run, where the serial engine processes nothing.)
        // Only the final window's journaled pops can fail the test.
        let keep = |k: &StampKey| {
            stop_key
                .as_ref()
                .is_some_and(|sk| k.order(sk) != Ordering::Greater)
        };
        for &(ref k, kind) in &pops {
            if keep(k) {
                banked.add(kind);
            } else if kind == PopKind::Sample {
                dropped_samples += 1;
            }
        }
        reverted = deltas
            .into_iter()
            .filter(|(k, _)| !keep(k))
            .map(|(_, d)| d)
            .collect();
        // Per-shard pops happen in key order, so filtered FCT records
        // are exactly a tail.
        while fct_keep > 0 && !keep(&fct_keys[fct_keep - 1]) {
            fct_keep -= 1;
        }
    }
    world.drop_last_occupancy(dropped_samples);

    // ---- piece assembly ----------------------------------------------

    let mut base = RunResults::default();
    world.fold_counters_into(&mut base);
    for d in &reverted {
        for (node, dpfc, ddrops) in d.nodes.iter().flatten() {
            base.pfc.subtract(dpfc);
            if let Some(per) = base.pfc_by_switch.get_mut(node) {
                per.subtract(dpfc);
            }
            base.drops.subtract(ddrops);
        }
        base.drops.subtract(&d.wire);
        base.irn.subtract(&d.irn);
    }
    debug_assert_eq!(
        fct_keys.len(),
        world.fct_records().len(),
        "FCT journal out of sync"
    );
    let fct: Vec<(StampKey, FctRecord)> = fct_keys
        .iter()
        .take(fct_keep)
        .copied()
        .zip(world.fct_records().iter().take(fct_keep).copied())
        .collect();
    stats.events_processed = q.stats().processed;
    stats.stamp_ambiguities = ambiguous_comparisons() - ambiguous_before;

    ShardPiece {
        unfinished: owed_flows - world.done_flows(),
        base,
        fct,
        banked,
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
    let replicated = pieces[0].banked.replicated;
    for p in &pieces {
        assert_eq!(
            p.banked.replicated, replicated,
            "replicated event schedules diverged across shards"
        );
        r.events_processed += p.banked.normal;
    }
    r.events_processed += replicated;

    // IRN: `flows` is replicated registration state (identical in every
    // shard); the run-time fields were each observed in exactly one
    // shard.
    r.irn = pieces[0].base.irn;
    for p in &pieces[1..] {
        assert_eq!(p.base.irn.flows, r.irn.flows, "flow registration diverged");
        let mut rt = p.base.irn;
        rt.flows = 0;
        r.irn.merge(&rt);
    }

    for p in pieces {
        r.pfc.merge(&p.base.pfc);
        for (node, c) in p.base.pfc_by_switch {
            r.pfc_by_switch.insert(node, c); // switch ownership is disjoint
        }
        r.drops.merge(&p.base.drops);
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
        for f in flows {
            sim.add_flow(*f);
        }
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
        assert_eq!(serial.pfc_by_switch, sharded.pfc_by_switch);
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

    /// Pops the shards dispatched past the stop key and reverted: what
    /// they dispatched beyond the serial engine's pops, every shard
    /// having replayed the serial run's `Sample` pops (the only
    /// replicated ones in a fault-free run).
    fn filtered_pops(serial: &RunResults, sharded: &RunResults) -> u64 {
        let samples = serial.occupancy.values().next().map_or(0, |o| o.len()) as u64;
        let replays = (sharded.shards.len() as u64 - 1) * samples;
        sharded.queue.processed - serial.queue.processed - replays
    }

    fn journaled_share(s: &ShardStats) -> f64 {
        s.journaled_pops as f64 / s.events_processed as f64
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
        let (_, solo) = assert_matches_serial(&topo, &cfg, &flows, 1, SimTime::from_millis(100));
        assert_eq!(
            solo.shards[0].journaled_pops, 0,
            "a solo run owes until it stops"
        );
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
            let (_, sharded) =
                assert_matches_serial(&topo, &cfg, &flows, shards, SimTime::from_millis(100));
            // Both racks carry counted flows to near the end: only the
            // earlier finisher's last stretch is journaled.
            for s in &sharded.shards {
                assert!(journaled_share(s) < 0.05, "{shards} shards: {s:?}");
            }
        }
    }

    /// (i) One shard's counted flows all finish many windows before the
    /// other's while it keeps forwarding: it journals a long tail, and
    /// the stop key lands in a window it journaled from its first pop.
    #[test]
    fn early_finishing_shard_journals_its_tail() {
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
            let (_, sharded) =
                assert_matches_serial(&topo, &cfg, &flows, shards, SimTime::from_millis(100));
            let (first, last) = (&sharded.shards[0], &sharded.shards[shards - 1]);
            assert!(journaled_share(first) > 0.5, "{shards} shards: {first:?}");
            // Journaled pops are a suffix of a shard's pops, so more of
            // them than any window holds means whole windows of them.
            assert!(first.journaled_pops > first.max_window_events);
            assert_eq!(last.journaled_pops, 0, "the last finisher owes throughout");
        }
    }

    /// (ii) Both shards' last completions fall in one window, 100 ns
    /// apart, and sampling ticks on past the stop key: each shard
    /// journals only its last few pops, and some of them are reverted.
    #[test]
    fn same_window_finish_reverts_the_overshoot() {
        let (topo, h) = four_rack_clos();
        let cfg = FabricConfig {
            policy: PolicyChoice::l2bm(),
            sample_interval: Some(SimDuration::from_nanos(250)),
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
            for s in [&sharded.shards[0], &sharded.shards[shards - 1]] {
                assert!(s.journaled_pops > 0, "{shards} shards: {s:?}");
                assert!(s.journaled_pops < s.max_window_events, "final window only");
            }
            assert!(filtered_pops(&serial, &sharded) > 0, "overshoot reverted");
            for (node, series) in &serial.occupancy {
                assert_eq!(series.samples(), sharded.occupancy[node].samples());
            }
        }
    }

    /// (iii) A shard that counts no flow owes nothing from its first pop
    /// and journals every one.
    #[test]
    fn shard_without_counted_flows_always_journals() {
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
            let sender = &sharded.shards[0];
            assert!(sender.events_processed > 0);
            assert_eq!(sender.journaled_pops, sender.events_processed);
            assert_eq!(sharded.shards[shards - 1].journaled_pops, 0);
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
            let (_, sharded) = assert_matches_serial(&topo, &cfg, &flows, shards, deadline);
            // Every shard still owes at the deadline.
            assert!(sharded.shards.iter().all(|s| s.journaled_pops == 0));
        }
    }

    #[test]
    fn faulted_run_matches_serial() {
        let topo = Topology::clos(&ClosConfig::small(4));
        // Flap a fabric link mid-run and corrupt another: fault events
        // replicate across shards, endpoint work stays owner-local.
        let mut faults = FaultSchedule::none();
        let fabric_link = topo
            .links()
            .iter()
            .find(|l| {
                topo.host_uplink_switch(l.a.node).is_none()
                    && topo.host_uplink_switch(l.b.node).is_none()
            })
            .expect("clos has fabric links");
        faults.link_flap(
            fabric_link.id.index() as u32,
            SimTime::from_micros(30),
            SimDuration::from_micros(200),
        );
        faults.corruption_window(
            fabric_link.id.index() as u32,
            SimTime::from_micros(400),
            SimDuration::from_micros(300),
            1e-6,
        );
        let cfg = FabricConfig {
            policy: PolicyChoice::l2bm(),
            faults,
            ..FabricConfig::default()
        };
        let flows = hybrid_flows(&topo, 16);
        for shards in [1, 2] {
            assert_matches_serial(&topo, &cfg, &flows, shards, SimTime::from_millis(100));
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
    fn zero_flow_run_matches_serial() {
        let topo = Topology::clos(&ClosConfig::small(2));
        let cfg = FabricConfig::default();
        for shards in [1, 2] {
            let (serial, sharded) =
                assert_matches_serial(&topo, &cfg, &[], shards, SimTime::from_millis(10));
            // Nothing is owed, so whatever the first window holds (the
            // solo run's reaches the deadline: every sampler tick) is
            // journaled — and reverted: the serial engine pops nothing.
            assert_eq!(serial.events_processed, 0);
            assert_eq!(sharded.shards[0].events_processed > 0, shards == 1);
            for s in &sharded.shards {
                assert_eq!(s.journaled_pops, s.events_processed);
            }
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
        let sim = ShardedFabricSim::new(topo, FabricConfig::default(), 64);
        assert_eq!(sim.shards(), 2, "small clos has two ToRs");
    }
}
