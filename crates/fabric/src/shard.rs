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
//!   samples dropped, and the event count corrected.
//! * **Replicas.** `Sample` and `Fault` events run in every shard
//!   (occupancy and link state are shard-local and replicated
//!   respectively); the merge counts them once and asserts the shards
//!   agree.

use std::cmp::Ordering;
use std::sync::{Arc, Mutex};

use dcn_metrics::FctRecord;
use dcn_net::{Partition, Topology, TrafficClass};
use dcn_sim::{
    ambiguous_comparisons, EventQueue, QueueStats, ShardStats, SimTime, Simulation, SpinBarrier,
    Stamp, StampKey,
};
use dcn_workload::FlowSpec;

use crate::config::{FabricConfig, RdmaTransport};
use crate::results::RunResults;
use crate::world::{Event, Handoff, PopDelta, World};

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

/// One shard's slot of barrier-shared state. Field use is phased so a
/// slow reader can never observe a peer's next-window write: `done_*`
/// are written before barrier A and read after it; `next_time` is
/// written between barriers A and B and read after B — and a shard only
/// reaches its next `done_*` write after every peer passed B.
#[derive(Default)]
struct Slot {
    done_keys: Vec<StampKey>,
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
    /// occupancy, liveness diagnostics.
    base: RunResults,
    /// Stop-key-filtered completion records with their dispatch keys,
    /// in this shard's (already key-sorted) completion order.
    fct: Vec<(StampKey, FctRecord)>,
    irn: dcn_metrics::IrnCounters,
    unfinished: usize,
    normal_events: u64,
    replicated_events: u64,
    ghost_credits: u64,
    queue: QueueStats,
    stats: ShardStats,
}

/// A [`crate::FabricSim`]-shaped simulator that runs one scenario on
/// `shards` cooperating worker threads with deterministic results: the
/// digest of [`ShardedFabricSim::results`] is byte-identical at every
/// shard count *and* to the serial engine's.
///
/// Unsupported (asserted) configurations: the flight recorder (it
/// entangles state across the whole fabric), and — beyond one shard —
/// the flow-liveness watchdog on IRN transports or with an interval
/// below the partition lookahead.
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
    /// Panics if `shards` is zero, if `cfg` enables the flight
    /// recorder, or if a configured frame exceeds
    /// [`dcn_net::MAX_FRAME`].
    pub fn new(topo: Topology, cfg: FabricConfig, shards: usize) -> ShardedFabricSim {
        assert!(shards >= 1, "at least one shard");
        cfg.assert_frames_fit();
        assert!(
            !cfg.trace.enabled,
            "sharded runs do not support the flight recorder"
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
    ///
    /// # Panics
    ///
    /// Panics if a multi-shard run enables the flow watchdog on an IRN
    /// configuration (the watchdog measures receiver progress but IRN
    /// completion is source-observed, so the timer cannot be placed in
    /// one shard) or with an interval below the partition lookahead
    /// (the cross-shard arm could fire inside its source window).
    pub fn run_until_done(&mut self, deadline: SimTime) -> bool {
        let shards = self.part.shards();
        if shards > 1 {
            if let Some(interval) = self.cfg.flow_watchdog {
                assert!(
                    self.cfg.rdma_transport == RdmaTransport::Dcqcn,
                    "flow watchdog cannot shard with the IRN transport"
                );
                assert!(
                    self.specs
                        .iter()
                        .all(|s| s.class != TrafficClass::LossyRdma),
                    "flow watchdog cannot shard with LossyRdma flows"
                );
                let lookahead = self
                    .part
                    .lookahead()
                    .expect("multi-shard implies cross links");
                assert!(
                    interval >= lookahead,
                    "flow-watchdog interval shorter than the partition lookahead"
                );
            }
        }
        let ambiguous_before = ambiguous_comparisons();
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
        let mut r = merge_pieces(pieces);
        // Stamp-comparison ambiguity is a process-global counter; the
        // whole run's delta is attributed to shard 0's entry. (Other
        // concurrently running simulations in the same process can
        // inflate it — it is a diagnostic, not part of any digest.)
        if let Some(first) = r.shards.first_mut() {
            first.stamp_ambiguities = ambiguous_comparisons() - ambiguous_before;
        }
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
    let mut world = World::new_sharded(topo.clone(), cfg.clone(), part.clone(), shard);
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

    let lookahead = part.lookahead();
    let mut stats = ShardStats::default();
    let mut group: Vec<(u32, Stamp)> = Vec::new();

    // Window-local journals, cleared at every continuing barrier (the
    // stop key can only land in the run's final window).
    let mut deltas: Vec<(StampKey, PopDelta)> = Vec::new();
    let mut pops: Vec<(StampKey, PopKind)> = Vec::new();
    let mut done_keys: Vec<StampKey> = Vec::new();
    // Run-long journal parallel to the world's FCT records.
    let mut fct_keys: Vec<StampKey> = Vec::new();

    let mut normal_events: u64 = 0;
    let mut replicated_events: u64 = 0;
    let mut ghost_credits: u64 = 0;

    let mut w_start = SimTime::ZERO;
    let mut done = false;
    let mut stop_key: Option<StampKey> = None;

    // A solo run (one shard owns the whole fabric) skips the speculation
    // journals: with no peers there is nothing to reconcile at a
    // barrier, so it can stop at the exact completing pop like the
    // serial engine — journaling every pop of the run-wide single window
    // would cost gigabytes for nothing.
    let solo = shards == 1;

    'windows: loop {
        if solo && world.done_flows() == total_flows {
            // Covers the zero-flow run (the serial engine exits before
            // processing anything); with flows, the in-loop break below
            // fires first and records the completing pop's key.
            done = true;
            break;
        }
        let w_end = match lookahead {
            Some(l) => deadline.min(w_start + l),
            None => deadline,
        };

        // Dispatch everything strictly inside the window, simultaneous
        // events in stamp order.
        let mut window_events: u64 = 0;
        while q.peek_time().is_some_and(|t| t < w_end) {
            if q.begin_group(&mut group).is_none() {
                break;
            }
            if group.len() > 1 {
                group.sort_by(|a, b| a.1.order(&b.1));
            }
            for &(member, stamp) in &group {
                let Some((at, ev)) = q.dispatch_member(member) else {
                    continue; // cancelled by an earlier member of its group
                };
                let key = StampKey { at, stamp };
                let kind = match ev {
                    Event::Sample => PopKind::Sample,
                    Event::Fault { .. } => PopKind::Fault,
                    _ => PopKind::Normal,
                };
                if solo {
                    let fct_before = world.fct_records().len();
                    world.handle(at, ev, &mut q);
                    if world.fct_records().len() > fct_before {
                        fct_keys.push(key);
                    }
                    match kind {
                        PopKind::Normal => normal_events += 1,
                        PopKind::Sample | PopKind::Fault => replicated_events += 1,
                    }
                    window_events += 1;
                    if world.done_flows() == total_flows {
                        // The serial engine stops right after this pop.
                        done = true;
                        stop_key = Some(key);
                        stats.max_window_events = stats.max_window_events.max(window_events);
                        break 'windows;
                    }
                    continue;
                }
                let snap = world.snap(&ev);
                world.handle(at, ev, &mut q);
                if let Some(d) = world.delta_since(snap) {
                    if d.fct_grew {
                        fct_keys.push(key);
                    }
                    if d.done_grew {
                        done_keys.push(key);
                    }
                    deltas.push((key, d));
                }
                pops.push((key, kind));
                window_events += 1;
            }
        }
        stats.max_window_events = stats.max_window_events.max(window_events);

        // Publish handoffs and this window's completions, then barrier A.
        let outbox = world.take_outbox();
        stats.handoffs_out += outbox.len() as u64;
        for h in outbox {
            debug_assert!(h.at >= w_end, "handoff fires inside its source window");
            shared.mailboxes[h.dest as usize]
                .lock()
                .expect("shard thread panicked")
                .push(h);
        }
        {
            let mut slot = shared.slots[shard as usize]
                .lock()
                .expect("shard thread panicked");
            slot.done_keys.clear();
            slot.done_keys.extend_from_slice(&done_keys);
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
            // stopped right after the completing pop — the maximum done
            // key across all shards' windows (`None` only for a
            // zero-flow run, which the serial engine exits before
            // processing anything).
            for s in 0..shards {
                for k in shared.slots[s]
                    .lock()
                    .expect("shard thread panicked")
                    .done_keys
                    .iter()
                {
                    stop_key = Some(match stop_key {
                        Some(cur) if cur.order(k).is_ge() => cur,
                        _ => *k,
                    });
                }
            }
            done = true;
            break 'windows;
        }

        // Continuing: everything this window dispatched is in the
        // serial run's past for certain — bank it and clear journals.
        for &(_, kind) in &pops {
            match kind {
                PopKind::Normal => normal_events += 1,
                PopKind::Sample | PopKind::Fault => replicated_events += 1,
            }
        }
        pops.clear();
        deltas.clear();
        done_keys.clear();
        // Timers cancelled with fire times inside the window are pops
        // the serial engine's lazy ghost absorption has counted by now.
        ghost_credits += q.fold_stamped_ghosts_before(w_end);

        if w_end >= deadline {
            // Deadline exit. Pending handoffs fire at ≥ deadline — the
            // serial engine would never have dispatched them either.
            break 'windows;
        }

        // Admit the peers' handoffs, then agree on the next window.
        let handoffs = std::mem::take(
            &mut *shared.mailboxes[shard as usize]
                .lock()
                .expect("shard thread panicked"),
        );
        stats.handoffs_in += handoffs.len() as u64;
        for h in handoffs {
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
    let mut reverted: Vec<PopDelta> = Vec::new();
    let mut fct_keep = fct_keys.len();
    if done {
        // Keep exactly what the serial engine processed: keys at or
        // before the stop key. (`stop_key` is `None` only for the
        // zero-flow run, where the serial engine processes nothing.)
        let keep = |k: &StampKey| {
            stop_key
                .as_ref()
                .is_some_and(|sk| k.order(sk) != Ordering::Greater)
        };
        for &(ref k, kind) in &pops {
            if keep(k) {
                match kind {
                    PopKind::Normal => normal_events += 1,
                    PopKind::Sample | PopKind::Fault => replicated_events += 1,
                }
            } else if kind == PopKind::Sample {
                dropped_samples += 1;
            }
        }
        reverted = deltas
            .into_iter()
            .filter(|(k, _)| !keep(k))
            .map(|(_, d)| d)
            .collect();
        debug_assert!(
            reverted.iter().all(|d| !d.done_grew),
            "a flow completed past the stop key"
        );
        // Per-shard pops happen in key order, so filtered FCT records
        // are exactly a tail.
        while fct_keep > 0 && !keep(&fct_keys[fct_keep - 1]) {
            fct_keep -= 1;
        }
        // Ghosts the serial run absorbed before stopping: every logged
        // cancellation strictly before the stop key.
        let tail = match &stop_key {
            Some(sk) => q
                .stamped_ghosts()
                .filter(|&(at, stamp)| StampKey { at, stamp }.order(sk) == Ordering::Less)
                .count() as u64,
            None => 0,
        };
        q.add_ghost_pops(tail);
        ghost_credits += tail;
    } else {
        // Deadline or drained exit: the serial engine absorbs every
        // remaining ghost before the deadline.
        let tail = q.stamped_ghosts().filter(|&(at, _)| at < deadline).count() as u64;
        q.add_ghost_pops(tail);
        ghost_credits += tail;
    }
    world.drop_last_occupancy(dropped_samples);

    // ---- piece assembly ----------------------------------------------

    let mut base = RunResults::default();
    world.fold_counters_into(&mut base);
    let mut irn = world.irn_counters();
    for d in &reverted {
        for (node, dpfc, ddrops) in d.nodes.iter().flatten() {
            base.pfc.subtract(dpfc);
            if let Some(per) = base.pfc_by_switch.get_mut(node) {
                per.subtract(dpfc);
            }
            base.drops.subtract(ddrops);
        }
        base.drops.subtract(&d.wire);
        irn.subtract(&d.irn);
    }
    debug_assert_eq!(
        fct_keys.len(),
        world.fct_records().len(),
        "FCT journal out of sync"
    );
    debug_assert_eq!(
        fct_keys.len() - fct_keep,
        reverted.iter().filter(|d| d.fct_grew).count(),
        "FCT tail drop disagrees with the reverted journal"
    );
    let fct: Vec<(StampKey, FctRecord)> = fct_keys
        .iter()
        .take(fct_keep)
        .copied()
        .zip(world.fct_records().iter().take(fct_keep).copied())
        .collect();
    stats.events_processed = q.stats().processed;

    ShardPiece {
        unfinished: world.counting_flows() - world.done_flows(),
        base,
        fct,
        irn,
        normal_events,
        replicated_events,
        ghost_credits,
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
    all_fct.sort_by(|a, b| a.0.order(&b.0));
    for (_, rec) in &all_fct {
        r.fct.push(*rec);
    }

    // Events: each normal pop happened in exactly one shard; replicated
    // pops happened in all of them identically (asserted) and count
    // once; ghost credits are per-timer and every timer is armed in
    // exactly one shard.
    let replicated = pieces[0].replicated_events;
    for p in &pieces {
        assert_eq!(
            p.replicated_events, replicated,
            "replicated event schedules diverged across shards"
        );
        r.events_processed += p.normal_events + p.ghost_credits;
    }
    r.events_processed += replicated;

    // IRN: `flows` is replicated registration state (identical in every
    // shard); the run-time fields were each observed in exactly one
    // shard.
    r.irn = pieces[0].irn;
    for p in &pieces[1..] {
        assert_eq!(p.irn.flows, r.irn.flows, "flow registration diverged");
        let mut rt = p.irn;
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
        // Queue stats fold: sums for counters and populations, max for
        // depth (entry size is identical by construction).
        r.queue.pending += p.queue.pending;
        r.queue.max_pending += p.queue.max_pending;
        r.queue.max_depth = r.queue.max_depth.max(p.queue.max_depth);
        r.queue.entry_bytes = p.queue.entry_bytes;
        r.queue.slab_capacity += p.queue.slab_capacity;
        r.queue.processed += p.queue.processed;
        r.queue.past_clamps += p.queue.past_clamps;
        r.queue.timers_pending += p.queue.timers_pending;
        r.queue.timer_cancels += p.queue.timer_cancels;
        r.queue.ghost_pops += p.queue.ghost_pops;
        r.queue.stale_timer_pops += p.queue.stale_timer_pops;
        r.shards.push(p.stats);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FabricSim, PolicyChoice};
    use dcn_net::{ClosConfig, FlowId, NodeId, Priority};
    use dcn_sim::{BitRate, Bytes, FaultSchedule, SimDuration};

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

    /// Digest equality plus the reconciliations the digest doesn't cover.
    fn assert_matches_serial(
        topo: &Topology,
        cfg: &FabricConfig,
        flows: &[FlowSpec],
        shards: usize,
        deadline: SimTime,
    ) {
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
    fn watchdog_run_matches_serial() {
        let topo = Topology::clos(&ClosConfig::small(4));
        let cfg = FabricConfig {
            flow_watchdog: Some(SimDuration::from_micros(500)),
            ..FabricConfig::default()
        };
        let flows = hybrid_flows(&topo, 16);
        for shards in [1, 2] {
            assert_matches_serial(&topo, &cfg, &flows, shards, SimTime::from_millis(100));
        }
    }

    #[test]
    fn zero_flow_run_matches_serial() {
        let topo = Topology::clos(&ClosConfig::small(2));
        let cfg = FabricConfig::default();
        for shards in [1, 2] {
            assert_matches_serial(&topo, &cfg, &[], shards, SimTime::from_millis(10));
        }
    }

    #[test]
    fn requested_shards_clamp_to_tor_count() {
        let topo = Topology::clos(&ClosConfig::small(2));
        let sim = ShardedFabricSim::new(topo, FabricConfig::default(), 64);
        assert_eq!(sim.shards(), 2, "small clos has two ToRs");
    }
}
