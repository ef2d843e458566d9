//! Hierarchical timing wheel for cancellable timers and far events.
//!
//! The near-future calendar in [`crate::EventQueue`] takes events a few
//! microseconds ahead, which are scheduled once and always fire. The
//! protocol timers — TCP retransmission deadlines, DCQCN alpha-decay and
//! rate-increase timers, PFC storm-watchdog deadlines — have the opposite
//! life cycle: almost every one is *cancelled or re-armed* before it
//! fires (every ACK on a live TCP flow pushes its RTO 2 ms further out).
//! They, and events beyond the calendar's horizon, live here.
//!
//! This module is the classic structure (Varghese & Lauck's
//! hierarchical timing wheel): six levels of 64 slots, each slot an
//! intrusive doubly-linked list of timer nodes, with per-level occupancy
//! bitmaps. Level 0 slots are one 1.024 µs tick wide; each higher level
//! is 64× coarser, so the hierarchy spans ~19.5 hours before any entry
//! needs to revolve. Arming is O(1) (compute level + slot from the delta
//! to the cursor, push onto the list), cancelling is O(1) (unlink via the
//! node's links). Advancing the cursor stages a level-1 window whole
//! when it enters it and cascades coarser slots into finer ones a node
//! at a time, so total work per node is bounded by the number of levels
//! it descends.
//!
//! # Determinism contract
//!
//! The wheel files each entry as `(time, slot)` and holds no ordering
//! data at all: entries that come due are staged into the dispatcher's
//! `due` stage (see `EventQueue::settle`), which reads each one's
//! insertion number from its slab slot, sorts, and merges with calendar
//! pops in exact `(time, seq)` order. Slot-list
//! order is therefore irrelevant to dispatch order — the wheel only needs
//! to deliver every entry with `at <= target` when asked to advance to
//! `target` (delivering more is harmless), which the cascade structure
//! guarantees because a node is always re-filed by its absolute tick.
//! DESIGN.md §4.8 spells out the full argument.

use crate::time::SimTime;

/// log₂ of the level-0 tick width in nanoseconds (1.024 µs). Fine enough
/// that protocol timers (≥ 50 µs) never collide with their own re-arms at
/// wheel granularity; coarse enough that cursor walks are cheap.
const GRAIN_BITS: u32 = 10;
/// log₂ of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level (64 — one occupancy bitmap word per level).
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels. Six levels of 64 slots at 1.024 µs granularity span
/// 2⁴⁶ ns ≈ 19.5 h; farther deadlines simply revolve (they re-cascade
/// from the top level, which preserves correctness).
const LEVELS: usize = 6;

/// Null link / list terminator.
const NIL: u32 = u32::MAX;
/// `home` value for nodes staged into the dispatcher's due stage.
const HOME_DUE: u32 = u32::MAX - 1;
/// `home` value for free-list nodes.
const HOME_FREE: u32 = u32::MAX - 2;

/// Opaque handle to an armed timer, returned by
/// [`crate::EventQueue::schedule_timer_at`] and consumed by
/// [`crate::EventQueue::cancel_timer`].
///
/// Generational: a handle to a timer that has
/// already fired, been cancelled, or been re-armed is detected and
/// rejected rather than corrupting a newer timer in the recycled node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerHandle {
    pub(crate) node: u32,
    pub(crate) generation: u32,
}

/// One timer node: its time and the payload's slab slot, plus
/// intrusive links.
#[derive(Debug, Clone, Copy)]
struct Node {
    at: SimTime,
    slot: u32,
    prev: u32,
    next: u32,
    generation: u32,
    /// Where the node currently lives: `level * SLOTS + slot` while filed
    /// in the wheel, [`HOME_DUE`] while staged for dispatch, or
    /// [`HOME_FREE`] on the free list.
    home: u32,
}

/// Result of [`Wheel::cancel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cancelled {
    /// Handle was stale (already fired, cancelled, or re-armed).
    Invalid,
    /// Timer was still filed in the wheel; its slab slot is returned.
    Filed { slot: u32 },
    /// Timer had already been staged for dispatch; the stale due entry
    /// will be skipped at pop via the generation check.
    Staged { slot: u32 },
}

/// The hierarchical wheel. Owns timer nodes; payloads stay in the
/// dispatcher's slab, addressed by each node's `slot`.
#[derive(Debug)]
pub(crate) struct Wheel {
    nodes: Vec<Node>,
    free: u32,
    /// Head node of each slot list, indexed `level * SLOTS + slot`.
    heads: [u32; LEVELS * SLOTS],
    /// Bit `s` of `occupancy[l]` set ⇔ slot `s` of level `l` is non-empty.
    occupancy: [u64; LEVELS],
    /// Current position in level-0 ticks. Never moves backwards, and
    /// never moves past the dispatcher's last drain target.
    cursor: u64,
    /// Nodes filed in the wheel (staged nodes are counted by the
    /// dispatcher's `due_live` instead).
    len: usize,
    /// Lower bound on the earliest filed entry's time; `SimTime::MAX`
    /// when no entries are filed. Lets the dispatcher's fast path pop the
    /// calendar without touching the wheel at all.
    bound: SimTime,
}

impl Wheel {
    pub(crate) fn new() -> Self {
        Wheel {
            nodes: Vec::new(),
            free: NIL,
            heads: [NIL; LEVELS * SLOTS],
            occupancy: [0; LEVELS],
            cursor: 0,
            len: 0,
            bound: SimTime::MAX,
        }
    }

    /// Filed entries (excludes staged nodes).
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lower bound on the earliest filed entry (`SimTime::MAX` if none).
    pub(crate) fn bound(&self) -> SimTime {
        self.bound
    }

    /// High-water bookkeeping: nodes ever allocated.
    #[cfg(test)]
    pub(crate) fn node_capacity(&self) -> usize {
        self.nodes.len()
    }

    /// Files a timer at `at` for the payload in `slot`. `at` must not precede
    /// the dispatcher's clock (the caller clamps); times before the
    /// cursor's tick are tolerated: they file into the cursor's slot and
    /// lower the bound, so the next drain stages them at their own key.
    pub(crate) fn insert(&mut self, at: SimTime, slot: u32) -> TimerHandle {
        let idx = self.alloc();
        let t_ticks = at.as_nanos() >> GRAIN_BITS;
        let home = self.file_home(t_ticks);
        let node = &mut self.nodes[idx as usize];
        node.at = at;
        node.slot = slot;
        node.home = home;
        let generation = node.generation;
        self.link(idx, home);
        self.len += 1;
        self.bound = self.bound.min(at);
        TimerHandle {
            node: idx,
            generation,
        }
    }

    /// Cancels an armed timer in O(1). See [`Cancelled`].
    pub(crate) fn cancel(&mut self, h: TimerHandle) -> Cancelled {
        let Some(node) = self.nodes.get(h.node as usize) else {
            return Cancelled::Invalid;
        };
        if node.generation != h.generation || node.home == HOME_FREE {
            return Cancelled::Invalid;
        }
        let (slot, home) = (node.slot, node.home);
        if home == HOME_DUE {
            self.release(h.node);
            return Cancelled::Staged { slot };
        }
        self.unlink(h.node, home);
        self.len -= 1;
        if self.len == 0 {
            self.bound = SimTime::MAX;
        }
        self.release(h.node);
        Cancelled::Filed { slot }
    }

    /// Whether a due entry `(node, generation)` still refers to a
    /// live staged timer (false once cancelled or recycled).
    pub(crate) fn is_staged_live(&self, node: u32, generation: u32) -> bool {
        self.nodes
            .get(node as usize)
            .is_some_and(|n| n.generation == generation && n.home == HOME_DUE)
    }

    /// Consumes a staged timer at dispatch, returning its payload's slab
    /// slot. `None` if the entry went stale (cancelled after staging).
    pub(crate) fn release_staged(&mut self, node: u32, generation: u32) -> Option<u32> {
        if !self.is_staged_live(node, generation) {
            return None;
        }
        let slot = self.nodes[node as usize].slot;
        self.release(node);
        Some(slot)
    }

    /// Advances the cursor to `target`'s tick, staging every filed entry
    /// up to that tick's end via `sink(at, slot, node, generation)` — and
    /// every entry of a level-1 window the cursor enters. Whole ticks, so
    /// a crowded tick is walked once, not once per target inside it.
    /// Afterwards [`Wheel::bound`] strictly exceeds `target`, so the
    /// dispatcher can pop any event at or before `target` without
    /// consulting the wheel again.
    pub(crate) fn drain_to(
        &mut self,
        target: SimTime,
        mut sink: impl FnMut(SimTime, u32, u32, u32),
    ) {
        let target_ticks = target.as_nanos() >> GRAIN_BITS;
        loop {
            self.stage_slot((self.cursor & (SLOTS as u64 - 1)) as usize, &mut sink);
            if self.cursor >= target_ticks {
                break;
            }
            let next = self.next_interesting_tick().unwrap_or(target_ticks);
            self.advance(next.min(target_ticks), &mut sink);
        }
        // The cursor's slot is empty now, so every filed entry lies at or
        // after the next interesting tick (slot starts: the bound can
        // undershoot within a window but never overshoot).
        self.bound = self.next_interesting_tick().map_or(SimTime::MAX, |t| {
            SimTime::from_nanos(t.saturating_mul(1 << GRAIN_BITS))
        });
    }

    /// Advances the cursor to the next tick where entries come due or
    /// cascade and drains that tick, which guarantees progress when only
    /// wheel entries remain; a tick (or a level-1 window) at a time keeps
    /// the dispatcher's due stage small. No-op on an empty wheel.
    pub(crate) fn drain_next(&mut self, mut sink: impl FnMut(SimTime, u32, u32, u32)) {
        if self.occupancy[0] & (1 << (self.cursor & (SLOTS as u64 - 1))) == 0 {
            let Some(tick) = self.next_interesting_tick() else {
                return;
            };
            self.advance(tick, &mut sink);
        }
        self.drain_to(SimTime::from_nanos(self.cursor << GRAIN_BITS), sink);
    }

    /// Moves the cursor forward to `tick`. Entering a level-1 window
    /// stages all of it; entering a coarser window cascades its entries
    /// down toward level 0. Boundaries the jump skipped had empty slots,
    /// so skipping their (no-op) cascades is sound.
    fn advance(&mut self, tick: u64, sink: &mut impl FnMut(SimTime, u32, u32, u32)) {
        self.cursor = tick;
        for level in 1..LEVELS {
            if self.cursor & ((1u64 << (SLOT_BITS * level as u32)) - 1) != 0 {
                break;
            }
            let slot = ((self.cursor >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
            if level == 1 {
                self.stage_slot(SLOTS + slot, sink);
            } else {
                self.cascade(level, slot);
            }
        }
    }

    /// The next tick after the cursor where an occupied level-0 slot
    /// comes up or an occupied coarse slot cascades; `None` if nothing is
    /// filed outside the cursor's own level-0 slot.
    fn next_interesting_tick(&self) -> Option<u64> {
        // Skip bit 0: the cursor's own slot.
        let rot = self.occupancy[0].rotate_right((self.cursor & 63) as u32) & !1;
        let mut next = (rot != 0).then(|| self.cursor + u64::from(rot.trailing_zeros()));
        // Coarse windows start on multiples of 64 ticks, after the cursor:
        // a level-0 slot in the cursor's own 64-tick window comes first.
        if next.is_some_and(|t| t <= self.cursor | 63) {
            return next;
        }
        for level in 1..LEVELS {
            if self.occupancy[level] == 0 {
                continue;
            }
            let shift = SLOT_BITS * level as u32;
            let cur = self.cursor >> shift;
            let rot = self.occupancy[level].rotate_right((cur & 63) as u32);
            let ahead = if rot & !1 != 0 {
                u64::from((rot & !1).trailing_zeros())
            } else {
                // Only the current coarse slot is occupied: its entries
                // lie a full revolution ahead and cascade then.
                SLOTS as u64
            };
            let start = (cur + ahead) << shift;
            next = Some(next.map_or(start, |t| t.min(start)));
        }
        next
    }

    // ---- internals ----------------------------------------------------

    /// Computes the `level * SLOTS + slot` home for an absolute tick,
    /// relative to the current cursor.
    fn file_home(&self, t_ticks: u64) -> u32 {
        let delta = t_ticks.saturating_sub(self.cursor);
        let level = if delta < SLOTS as u64 {
            0
        } else {
            (((63 - delta.leading_zeros()) / SLOT_BITS) as usize).min(LEVELS - 1)
        };
        let slot = ((t_ticks.max(self.cursor) >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1))
            as usize;
        (level * SLOTS + slot) as u32
    }

    /// Stages every entry of slot `home`. The list is detached whole, so
    /// staging a node never touches its neighbours.
    fn stage_slot(&mut self, home: usize, sink: &mut impl FnMut(SimTime, u32, u32, u32)) {
        if self.occupancy[home / SLOTS] & (1 << (home % SLOTS)) == 0 {
            return;
        }
        let mut idx = std::mem::replace(&mut self.heads[home], NIL);
        self.occupancy[home / SLOTS] &= !(1 << (home % SLOTS));
        while idx != NIL {
            let node = self.nodes[idx as usize];
            self.len -= 1;
            self.nodes[idx as usize].home = HOME_DUE;
            sink(node.at, node.slot, idx, node.generation);
            idx = node.next;
        }
    }

    /// Re-files every entry of a coarse slot relative to the new cursor.
    fn cascade(&mut self, level: usize, slot: usize) {
        let home = (level * SLOTS + slot) as u32;
        if self.occupancy[level] & (1 << slot) == 0 {
            return;
        }
        let mut idx = self.heads[home as usize];
        self.heads[home as usize] = NIL;
        self.occupancy[level] &= !(1 << slot);
        while idx != NIL {
            let next = self.nodes[idx as usize].next;
            let t_ticks = self.nodes[idx as usize].at.as_nanos() >> GRAIN_BITS;
            let new_home = self.file_home(t_ticks);
            self.nodes[idx as usize].home = new_home;
            self.link(idx, new_home);
            idx = next;
        }
    }

    fn alloc(&mut self) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            self.free = self.nodes[idx as usize].next;
            idx
        } else {
            let idx = u32::try_from(self.nodes.len()).expect("timer nodes fit u32");
            self.nodes.push(Node {
                at: SimTime::ZERO,
                slot: NIL,
                prev: NIL,
                next: NIL,
                generation: 0,
                home: HOME_FREE,
            });
            idx
        }
    }

    /// Returns a node to the free list, bumping its generation so
    /// outstanding handles and due entries go stale.
    fn release(&mut self, idx: u32) {
        let node = &mut self.nodes[idx as usize];
        node.generation = node.generation.wrapping_add(1);
        node.home = HOME_FREE;
        node.prev = NIL;
        node.next = self.free;
        self.free = idx;
    }

    /// Pushes a node at the front of its home slot list.
    fn link(&mut self, idx: u32, home: u32) {
        let head = self.heads[home as usize];
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = head;
        if head != NIL {
            self.nodes[head as usize].prev = idx;
        }
        self.heads[home as usize] = idx;
        self.occupancy[home as usize / SLOTS] |= 1 << (home as usize % SLOTS);
    }

    /// Unlinks a node from its home slot list.
    fn unlink(&mut self, idx: u32, home: u32) {
        let (prev, next) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.heads[home as usize] = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        }
        if self.heads[home as usize] == NIL {
            self.occupancy[home as usize / SLOTS] &= !(1 << (home as usize % SLOTS));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(w: &mut Wheel, target: SimTime) -> Vec<(SimTime, u32)> {
        let mut out = Vec::new();
        w.drain_to(target, |at, slot, _, _| out.push((at, slot)));
        out.sort();
        out
    }

    #[test]
    fn fires_in_time_order_after_sort() {
        let mut w = Wheel::new();
        w.insert(SimTime::from_micros(5), 1);
        w.insert(SimTime::from_micros(3), 2);
        w.insert(SimTime::from_micros(900), 3);
        let fired = drain_all(&mut w, SimTime::from_micros(10));
        assert_eq!(
            fired,
            vec![(SimTime::from_micros(3), 2), (SimTime::from_micros(5), 1),]
        );
        assert_eq!(w.len(), 1);
        let fired = drain_all(&mut w, SimTime::from_millis(1));
        assert_eq!(fired, vec![(SimTime::from_micros(900), 3)]);
        assert!(w.is_empty());
        assert_eq!(w.bound(), SimTime::MAX);
    }

    #[test]
    fn cancel_filed_and_staged() {
        let mut w = Wheel::new();
        let a = w.insert(SimTime::from_micros(50), 1);
        let b = w.insert(SimTime::from_micros(50), 2);
        assert!(matches!(w.cancel(a), Cancelled::Filed { .. }));
        assert!(matches!(w.cancel(a), Cancelled::Invalid), "double cancel");
        let mut staged = Vec::new();
        w.drain_to(SimTime::from_micros(60), |at, slot, node, generation| {
            staged.push((at, slot, node, generation));
        });
        assert_eq!(staged.len(), 1);
        let (_, slot, node, generation) = staged[0];
        assert_eq!(slot, 2);
        assert!(w.is_staged_live(node, generation));
        assert!(matches!(w.cancel(b), Cancelled::Staged { .. }));
        assert!(!w.is_staged_live(node, generation));
        assert_eq!(w.release_staged(node, generation), None);
    }

    #[test]
    fn release_staged_returns_slot_once() {
        let mut w = Wheel::new();
        w.insert(SimTime::from_micros(2), 7);
        let mut staged = Vec::new();
        w.drain_to(SimTime::from_micros(4), |_, _, node, generation| {
            staged.push((node, generation));
        });
        let (node, generation) = staged[0];
        assert_eq!(w.release_staged(node, generation), Some(7));
        assert_eq!(w.release_staged(node, generation), None);
    }

    #[test]
    fn far_deadlines_cascade_down_on_time() {
        let mut w = Wheel::new();
        // One deadline per level's span, plus one beyond the wheel span
        // (revolves through the top level).
        let times = [
            SimTime::from_nanos(1 << 12),
            SimTime::from_nanos(1 << 18),
            SimTime::from_nanos(1 << 24),
            SimTime::from_nanos(1 << 32),
            SimTime::from_nanos(1 << 40),
            SimTime::from_nanos(1 << 45),
            SimTime::from_nanos(1 << 47),
        ];
        for (i, &t) in times.iter().enumerate() {
            w.insert(t, i as u32);
        }
        for (i, &t) in times.iter().enumerate() {
            // Draining to just before the deadline must not fire it...
            let before = SimTime::from_nanos(t.as_nanos() - 1);
            assert!(drain_all(&mut w, before).is_empty(), "early fire at {i}");
            // ...and draining to the deadline fires exactly it.
            assert_eq!(drain_all(&mut w, t), vec![(t, i as u32)]);
        }
        assert!(w.is_empty());
    }

    #[test]
    fn bound_allows_skipping_the_wheel() {
        let mut w = Wheel::new();
        w.insert(SimTime::from_millis(2), 1);
        assert!(w.bound() <= SimTime::from_millis(2));
        assert!(w.bound() > SimTime::ZERO);
        drain_all(&mut w, SimTime::from_micros(100));
        // After draining to t, the bound strictly exceeds t.
        assert!(w.bound() > SimTime::from_micros(100));
        assert!(w.bound() <= SimTime::from_millis(2));
    }

    #[test]
    fn same_tick_rearm_fires_at_new_key() {
        let mut w = Wheel::new();
        let h = w.insert(SimTime::from_nanos(1500), 1);
        assert!(matches!(w.cancel(h), Cancelled::Filed { .. }));
        w.insert(SimTime::from_nanos(1600), 2);
        let fired = drain_all(&mut w, SimTime::from_micros(2));
        assert_eq!(fired, vec![(SimTime::from_nanos(1600), 2)]);
    }

    #[test]
    fn node_recycling_goes_stale() {
        let mut w = Wheel::new();
        let a = w.insert(SimTime::from_micros(1), 1);
        assert!(matches!(w.cancel(a), Cancelled::Filed { .. }));
        let b = w.insert(SimTime::from_micros(1), 2);
        assert_eq!(a.node, b.node, "node recycled LIFO");
        assert!(matches!(w.cancel(a), Cancelled::Invalid));
        assert!(matches!(w.cancel(b), Cancelled::Filed { .. }));
        assert_eq!(w.node_capacity(), 1);
    }

    #[test]
    fn drain_next_progresses_with_a_valid_bound() {
        let mut w = Wheel::new();
        // Two entries in one tick, one a tick later in the same level-1
        // window, one two levels out and one three levels out.
        let times = [7_000_000, 7_000_005, 7_001_024, 9_000_000, 300_000_000];
        for (i, &t) in times.iter().enumerate() {
            w.insert(SimTime::from_nanos(t), i as u32);
        }
        let mut fired = Vec::new();
        for _ in 0..16 {
            w.drain_next(|at, _, _, _| fired.push(at.as_nanos()));
            // The bound never overshoots an entry still filed.
            let mut filed = times.iter().filter(|t| !fired.contains(t));
            assert!(filed.all(|&t| w.bound() <= SimTime::from_nanos(t)));
        }
        fired.sort();
        assert_eq!(fired, times);
        assert!(w.is_empty());
        w.drain_next(|_, _, _, _| unreachable!("empty wheel stages nothing"));
    }
}
