//! Event queue and simulation driver.
//!
//! Events are an application-defined type `E`; the queue orders them by
//! scheduled time, breaking ties by insertion order so that runs are fully
//! deterministic regardless of queue internals.
//!
//! # Internals: nanosecond calendar + timing wheel + event slab
//!
//! The queue is two structures behind one dispatch order:
//!
//! * **Near events** — scheduled less than `SPAN` = 8 192 ns ahead:
//!   packets, link completions, line-rate paces — go to a calendar of
//!   one-nanosecond buckets covering `[now, now + SPAN)`. A bucket is a
//!   FIFO of slab slots, and a two-level occupancy bitmap finds the next
//!   non-empty one, so schedule and pop are O(1). Every entry of a bucket
//!   has the same time and joined it in `seq` order, so FIFO order *is*
//!   `(time, seq)` order: nothing is sorted. The FIFO link and the
//!   64-bit insertion number sit beside the payload in its slab slot,
//!   so a pop touches one line.
//! * **Cancellable timers** (RTO deadlines, DCQCN rate/alpha timers, PFC
//!   watchdogs) go to a hierarchical timing wheel ([`crate::wheel`]) via
//!   [`EventQueue::schedule_timer_at`], which returns a [`TimerHandle`]
//!   for true O(1) cancel/re-arm. Far events (flow starts, samples,
//!   faults, slow paces) and everything scheduled before the first
//!   dispatch ride the wheel too, their handles dropped.
//!
//! The dispatcher merges the two sources deterministically: wheel entries
//! that come due are staged into a small `due` stage sorted by the same
//! `(time, seq)` order the calendar keeps, and [`EventQueue::pop`] always
//! returns the global minimum. Timer arms consume insertion sequence
//! numbers exactly where the tombstoning engine scheduled replacement
//! events, so the dispatch order is the old engine's — see DESIGN.md
//! §4.8. A cancelled timer leaves nothing behind and is never counted.

use std::cmp::Reverse;

use crate::slab::Slab;
use crate::stamp::Stamp;
use crate::time::{SimDuration, SimTime};
use crate::wheel::{Cancelled, TimerHandle, Wheel};

/// A model that consumes events and schedules new ones.
///
/// The driver functions [`run_until`] / [`run_while`] pop events in time
/// order and pass them to [`Simulation::handle`] together with the current
/// simulated time and the queue (for scheduling follow-up events).
pub trait Simulation {
    /// The event type dispatched through the queue.
    type Event;

    /// Processes one event at simulated time `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}

/// One dispatch key, packed into 16 bytes as `at << 64 | seq` so that
/// one integer comparison orders by `(at, seq)`. `seq` is the entry's
/// insertion number, read from its slab slot: live entries always
/// differ in it, and a `u64` never wraps, so no key is ever rewritten.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry(u128);

impl Entry {
    fn new(at: SimTime, seq: u64) -> Entry {
        Entry((u128::from(at.as_nanos()) << 64) | u128::from(seq))
    }

    fn at(self) -> SimTime {
        SimTime::from_nanos((self.0 >> 64) as u64)
    }
}

/// Calendar buckets, one per nanosecond of `[now, now + SPAN)`. A
/// constant: 8 192 ns covers the longest near delay, 5 µs core
/// propagation plus a 1 048 B frame at 25 Gbps.
const SPAN: usize = 1 << 13;
/// Occupancy words, one bit per bucket.
const WORDS: usize = SPAN / 64;
/// End of a bucket's FIFO.
const NIL: u32 = u32::MAX;

/// A pending event in its slab slot: the payload, its insertion
/// number (the only copy), and the next slot of its calendar bucket.
#[derive(Debug)]
struct Pending<E> {
    seq: u64,
    /// [`NIL`] at a bucket's tail; unused while the event is in the wheel.
    next: u32,
    event: E,
}

/// The near-future calendar. Bucket `b` holds the entries at the one
/// time `t ∈ [now, now + SPAN)` with `t % SPAN == b`, oldest first.
#[derive(Debug)]
struct Calendar {
    /// `[head, tail]` slab slot of each bucket; stale while its bit is clear.
    fifo: Box<[[u32; 2]; SPAN]>,
    /// Bit `b % 64` of `words[b / 64]` set ⇔ bucket `b` is non-empty.
    words: Box<[u64; WORDS]>,
    /// Bit `w` set ⇔ `words[w] != 0`.
    summary: u128,
}

impl Calendar {
    /// Built on the heap (a 64 KB value would take as much stack) and
    /// out of line, away from the pop path that calls it once.
    #[cold]
    #[inline(never)]
    fn new() -> Calendar {
        Calendar {
            fifo: vec![[NIL; 2]; SPAN].try_into().expect("SPAN buckets"),
            words: vec![0; WORDS].try_into().expect("WORDS words"),
            summary: 0,
        }
    }

    fn is_set(&self, b: usize) -> bool {
        self.words[b / 64] & (1 << (b % 64)) != 0
    }

    /// Appends `slot` to bucket `b`, returning the old tail to link from.
    fn push(&mut self, b: usize, slot: u32) -> Option<u32> {
        if self.is_set(b) {
            return Some(std::mem::replace(&mut self.fifo[b][1], slot));
        }
        self.fifo[b] = [slot, slot];
        self.words[b / 64] |= 1 << (b % 64);
        self.summary |= 1 << (b / 64);
        None
    }

    /// Makes `next` bucket `b`'s head; [`NIL`] empties the bucket.
    fn advance(&mut self, b: usize, next: u32) {
        if next != NIL {
            self.fifo[b][0] = next;
            return;
        }
        self.words[b / 64] &= !(1 << (b % 64));
        if self.words[b / 64] == 0 {
            self.summary &= !(1 << (b / 64));
        }
    }

    /// The first non-empty bucket at or after `from`, wrapping around.
    fn first_from(&self, from: usize) -> Option<usize> {
        let w = from / 64;
        let here = self.words[w] & (u64::MAX << (from % 64));
        if here != 0 {
            return Some(w * 64 + here.trailing_zeros() as usize);
        }
        let later = self.summary & (u128::MAX << w << 1);
        let w = match (later, self.summary) {
            (_, 0) => return None,
            (0, all) => all.trailing_zeros(),
            (later, _) => later.trailing_zeros(),
        } as usize;
        Some(w * 64 + self.words[w].trailing_zeros() as usize)
    }
}

/// A staged wheel entry awaiting dispatch: its key, its payload's slab
/// slot, and the node and generation that validate it against
/// cancel-after-staging at pop time.
#[derive(Debug, Clone, Copy)]
struct Due {
    key: Entry,
    slot: u32,
    node: u32,
    generation: u32,
}

/// Where a gathered group member's payload still lives.
#[derive(Debug, Clone, Copy)]
enum GroupSrc {
    /// Removed from its calendar bucket; payload in the slab.
    Calendar,
    /// Removed from the `due` stage but still *staged* in the wheel, so
    /// a mid-group `cancel_timer` takes the normal `Staged` path and
    /// dispatch detects the cancellation via `release_staged → None`.
    Due { node: u32, generation: u32 },
}

/// One member of a gathered simultaneous-event group.
#[derive(Debug, Clone, Copy)]
struct GroupMember {
    at: SimTime,
    slot: u32,
    src: GroupSrc,
}

/// Opt-in state for *stamp mode*, the sharded executor's dispatch
/// discipline. Serial runs never allocate this; every hook below is a
/// single `Option` check on their paths.
///
/// In stamp mode the `(time, seq)` insertion order is replaced by
/// `(time, `[`Stamp`]`)`: every admission records an admission-lineage
/// stamp in a side table, [`EventQueue::begin_group`] gathers all events
/// at the earliest pending time in stamp order, and the caller
/// dispatches them one by one — an order every shard of a partitioned
/// run computes identically.
#[derive(Debug)]
struct StampState {
    /// The stamp table: one slot per pending payload and for the
    /// dispatching pop, recycled through `free` (a cancelled timer's at
    /// once). A stamp slot has its own lifetime, not its payload's slab
    /// slot's: the dispatching pop's stamp outlives `slab.take` (its
    /// children are written from it in place). Each stamp is written
    /// once, at admission, and read where it lies from then on.
    stamps: Vec<Stamp>,
    /// Free slots in `stamps`.
    free: Vec<u32>,
    /// Stamp slot of each pending payload, indexed by slab slot.
    of_slot: Vec<u32>,
    /// Stamp slot of the pop currently dispatching (children derive
    /// from it), held until the next dispatch. `None` until the first
    /// one: admissions before it are setup roots.
    current: Option<u32>,
    /// Emissions so far of the current pop.
    emit_n: u32,
    /// Root ordinal for the next setup (pre-dispatch) admission.
    next_root: u32,
    /// The gathered simultaneous group currently being dispatched, in
    /// stamp order.
    group: Vec<GroupMember>,
    /// Gathered-but-undispatched calendar members (kept so `len()` stays
    /// exact mid-group; due members are still counted by `due_live`).
    group_live: usize,
}

impl StampState {
    /// Consumes the current pop's next emission index.
    fn next_k(&mut self) -> u32 {
        let k = self.emit_n;
        self.emit_n += 1;
        k
    }
}

/// Scheduler counters for perf reporting and model-bug detection.
///
/// Returned by [`EventQueue::stats`]; all plain data, so results can ship
/// it across threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events currently pending (calendar + wheel + staged).
    pub pending: usize,
    /// High-water mark of pending events over the queue's lifetime.
    pub max_pending: usize,
    /// Slots ever allocated in the event slab (its high-water mark).
    pub slab_capacity: usize,
    /// Events dispatched to the model.
    pub processed: u64,
    /// Times a schedule call clamped a past timestamp up to `now`.
    /// Always zero in a correct model; see [`EventQueue::past_clamps`].
    /// Timers count here identically to other events.
    pub past_clamps: u64,
    /// Entries filed in the wheel or staged for dispatch: armed timers
    /// plus events scheduled beyond the calendar's horizon or before the
    /// first dispatch.
    pub timers_pending: usize,
    /// Timers cancelled or re-armed before firing. Each one the
    /// tombstoning engine would have left to rot in its heap.
    pub timer_cancels: u64,
    /// Always 0: cancelled timers are not counted as pops. Kept only
    /// for the benchmark's report row, which ROADMAP item 1 retires.
    pub ghost_pops: u64,
    /// Timer events dispatched to the model after their handle was
    /// cancelled. Structurally zero with the wheel (cancellation removes
    /// the entry before dispatch); a nonzero value means tombstoning has
    /// crept back in. Asserted zero by the golden and chaos checks.
    pub stale_timer_pops: u64,
}

/// A time-ordered event queue with deterministic FIFO tie-breaking.
///
/// # Example
///
/// ```
/// use dcn_sim::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.schedule_at(SimTime::from_nanos(5), "b");
/// q.schedule_at(SimTime::from_nanos(1), "a");
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(1), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(5), "b")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Allocated at the first dispatch; until then everything is filed
    /// in the wheel, so building a queue costs no calendar.
    cal: Option<Calendar>,
    /// Entries in the calendar.
    cal_len: usize,
    slab: Slab<Pending<E>>,
    wheel: Wheel,
    /// Wheel entries that have come due, merged with calendar pops in
    /// `(time, seq)` order: sorted by key, earliest *last*. Usually a
    /// handful of entries.
    due: Vec<Due>,
    /// Live entries in `due` (cancel-after-staging leaves stale entries
    /// that are skipped, not removed).
    due_live: usize,
    /// Stamp-mode state; `None` (and untouched) on serial runs.
    stamp: Option<Box<StampState>>,
    /// Next insertion number (the FIFO tie-break).
    seq: u64,
    now: SimTime,
    processed: u64,
    timer_cancels: u64,
    stale_timer_pops: u64,
    past_clamps: u64,
    max_pending: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            cal: None,
            cal_len: 0,
            slab: Slab::new(),
            wheel: Wheel::new(),
            due: Vec::new(),
            due_live: 0,
            stamp: None,
            seq: 0,
            now: SimTime::ZERO,
            processed: 0,
            timer_cancels: 0,
            stale_timer_pops: 0,
            past_clamps: 0,
            max_pending: 0,
        }
    }

    /// Clamps a requested time into the non-past, counting violations.
    #[inline]
    fn clamp_time(&mut self, at: SimTime) -> SimTime {
        if at < self.now {
            self.past_clamps += 1;
            self.now
        } else {
            at
        }
    }

    /// Stores one scheduled entry's payload and insertion number in a
    /// slab slot and returns the slot — shared by events and timers so
    /// both consume insertion numbers from the same sequence.
    ///
    /// In stamp mode (`carried` or an enabled [`StampState`]) the slot's
    /// admission stamp is recorded: `carried` verbatim (cross-shard
    /// handoffs), otherwise a child of the dispatching pop, or a setup
    /// root before the first dispatch. Whichever it is, it is written
    /// straight into its table slot.
    #[inline]
    fn admit(&mut self, event: E, carried: Option<&Stamp>) -> u32 {
        let slot = self.slab.insert(Pending {
            seq: self.seq,
            next: NIL,
            event,
        });
        self.seq += 1;
        if let Some(st) = self.stamp.as_deref_mut() {
            let ix = st.free.pop().unwrap_or_else(|| {
                st.stamps.push(Stamp::root(0));
                (st.stamps.len() - 1) as u32
            });
            match (carried, st.current) {
                (Some(s), _) => st.stamps[ix as usize] = *s,
                (None, Some(cur)) => {
                    let k = st.next_k();
                    let [parent, child] = st
                        .stamps
                        .get_disjoint_mut([cur as usize, ix as usize])
                        .expect("the dispatching pop holds its stamp slot");
                    parent.write_child(child, self.now, k);
                }
                (None, None) => {
                    st.stamps[ix as usize] = Stamp::root(st.next_root);
                    st.next_root += 1;
                }
            }
            let i = slot as usize;
            if st.of_slot.len() <= i {
                st.of_slot.resize(i + 1, 0);
            }
            st.of_slot[i] = ix;
        } else {
            debug_assert!(carried.is_none(), "stamped admission without stamp mode");
        }
        slot
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Scheduling in the past is a model bug; the time is clamped to
    /// `now` and the incident is counted in [`EventQueue::past_clamps`],
    /// which correctness tests assert to be zero — a latent model bug
    /// cannot hide behind the clamp.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.schedule_entry(at, event, None);
    }

    fn schedule_entry(&mut self, at: SimTime, event: E, carried: Option<&Stamp>) {
        let at = self.clamp_time(at);
        self.assert_future_in_stamp_mode(at);
        let slot = self.admit(event, carried);
        match self.cal.as_mut() {
            Some(cal) if at.as_nanos() - self.now.as_nanos() < SPAN as u64 => {
                if let Some(tail) = cal.push(at.as_nanos() as usize % SPAN, slot) {
                    self.slab.get_mut(tail).next = slot;
                }
                self.cal_len += 1;
            }
            // Beyond the horizon or before the first dispatch: filed in
            // the wheel and never cancelled, so the handle is dropped.
            _ => {
                self.wheel.insert(at, slot);
            }
        }
        self.max_pending = self.max_pending.max(self.len());
    }

    /// Schedules `event` at `now + delay`.
    pub fn schedule_after(&mut self, now: SimTime, delay: SimDuration, event: E) {
        self.schedule_at(now + delay, event);
    }

    /// Arms a cancellable timer at absolute time `at`, returning a handle
    /// for [`EventQueue::cancel_timer`]. Timers dispatch through
    /// [`EventQueue::pop`] in the same `(time, seq)` order as other
    /// events; past times are clamped and counted exactly like
    /// [`EventQueue::schedule_at`].
    pub fn schedule_timer_at(&mut self, at: SimTime, event: E) -> TimerHandle {
        let at = self.clamp_time(at);
        self.assert_future_in_stamp_mode(at);
        let slot = self.admit(event, None);
        let handle = self.wheel.insert(at, slot);
        self.max_pending = self.max_pending.max(self.len());
        handle
    }

    /// Arms a cancellable timer at `now + delay`.
    pub fn schedule_timer_after(
        &mut self,
        now: SimTime,
        delay: SimDuration,
        event: E,
    ) -> TimerHandle {
        self.schedule_timer_at(now + delay, event)
    }

    /// Cancels an armed timer in O(1), returning its payload. `None` if
    /// the handle is stale (the timer already fired or was cancelled).
    /// In stamp mode the timer's stamp slot is freed at once.
    pub fn cancel_timer(&mut self, handle: TimerHandle) -> Option<E> {
        let slot = match self.wheel.cancel(handle) {
            Cancelled::Invalid => return None,
            Cancelled::Filed { slot } => slot,
            Cancelled::Staged { slot } => {
                self.due_live -= 1;
                slot
            }
        };
        self.timer_cancels += 1;
        if let Some(st) = self.stamp.as_deref_mut() {
            st.free.push(st.of_slot[slot as usize]);
        }
        Some(self.slab.take(slot).event)
    }

    /// Establishes the dispatch invariant and returns the earliest
    /// pending key, and whether the calendar holds it: stale due entries
    /// are gone and that key (calendar or due) precedes everything still
    /// filed in the wheel — or all three are empty.
    fn settle(&mut self) -> Option<(Entry, bool)> {
        loop {
            while let Some(d) = self.due.last() {
                if self.wheel.is_staged_live(d.node, d.generation) {
                    break;
                }
                // Cancelled after staging; the cancel took its payload.
                self.due.pop();
            }
            let next = self.next_key();
            let target = match next {
                _ if self.wheel.is_empty() => return next,
                Some((key, _)) if key.at() < self.wheel.bound() => return next,
                next => next.map(|(key, _)| key.at()),
            };
            let (due, due_live, slab) = (&mut self.due, &mut self.due_live, &self.slab);
            let stage = |at, slot, node, generation| {
                due.push(Due {
                    key: Entry::new(at, slab.get(slot).seq),
                    slot,
                    node,
                    generation,
                });
                *due_live += 1;
            };
            match target {
                Some(target) => self.wheel.drain_to(target, stage),
                None => self.wheel.drain_next(stage),
            }
            // Staged in slot-list order, which is often sorted or
            // reversed already: both take one pass.
            self.due.sort_unstable_by_key(|d| Reverse(d.key));
        }
    }

    /// The earliest key across the calendar and the due stage, and
    /// whether the calendar holds it. Only meaningful with the due head
    /// live (see [`EventQueue::settle`]).
    #[inline]
    fn next_key(&self) -> Option<(Entry, bool)> {
        let cal_key = self.cal_front().map(|e| (e, true));
        let due_key = self.due.last().map(|d| (d.key, false));
        match (cal_key, due_key) {
            // Keys are distinct, so the flag never decides the minimum.
            (Some(c), Some(d)) => Some(c.min(d)),
            (c, d) => c.or(d),
        }
    }

    /// The calendar's earliest key: the head of the first non-empty
    /// bucket at or after `now`'s. Its entries all lie in
    /// `[now, now + SPAN)`, so bucket order from there is time order.
    #[inline]
    fn cal_front(&self) -> Option<Entry> {
        let cal = self.cal.as_ref().filter(|_| self.cal_len > 0)?;
        let now = self.now.as_nanos();
        let b = cal.first_from(now as usize % SPAN)?;
        let at = now + (b.wrapping_sub(now as usize) % SPAN) as u64;
        let seq = self.slab.get(cal.fifo[b][0]).seq;
        Some(Entry::new(SimTime::from_nanos(at), seq))
    }

    /// Pops the earliest event, advancing the queue's clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_if(|_| true)
    }

    /// Pops the earliest event if `take` accepts its time — one settle
    /// for the look and the pop, which is what the run loops need.
    fn pop_if(&mut self, take: impl FnOnce(SimTime) -> bool) -> Option<(SimTime, E)> {
        let (key, from_cal) = self.settle()?;
        if !take(key.at()) {
            return None;
        }
        Some(if from_cal {
            self.pop_cal_front(key)
        } else {
            self.pop_due_top()
        })
    }

    fn pop_cal_front(&mut self, key: Entry) -> (SimTime, E) {
        let b = key.at().as_nanos() as usize % SPAN;
        let cal = self.cal.as_mut().expect("calendar front");
        let p = self.slab.take(cal.fifo[b][0]);
        cal.advance(b, p.next);
        self.cal_len -= 1;
        self.finish_pop(key.at());
        (key.at(), p.event)
    }

    fn pop_due_top(&mut self) -> (SimTime, E) {
        let d = self.due.pop().expect("settled due top");
        match self.wheel.release_staged(d.node, d.generation) {
            Some(released) => debug_assert_eq!(released, d.slot),
            None => {
                // Unreachable by construction: settle() just validated
                // this entry. Counted rather than ignored so tombstoning
                // regressions can't hide.
                self.stale_timer_pops += 1;
            }
        }
        self.due_live -= 1;
        let event = self.slab.take(d.slot).event;
        self.finish_pop(d.key.at());
        (d.key.at(), event)
    }

    /// Advances the clock and counts the dispatch. The first dispatch
    /// allocates the calendar.
    fn finish_pop(&mut self, at: SimTime) {
        self.now = at;
        self.processed += 1;
        if self.cal.is_none() {
            self.cal = Some(Calendar::new());
        }
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.settle().map(|(key, _)| key.at())
    }

    /// The current simulated time (time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Stamp-mode group gathering removes events from their structures
    /// before dispatch; a member emitting at (or before) the group's
    /// time would silently miss its own group, so it is a model bug.
    #[inline]
    fn assert_future_in_stamp_mode(&self, at: SimTime) {
        if let Some(st) = self.stamp.as_deref() {
            debug_assert!(
                st.current.is_none() || at > self.now,
                "stamp mode forbids zero-delay emissions"
            );
        }
        let _ = at;
    }

    /// Number of pending events, armed timers included.
    pub fn len(&self) -> usize {
        let in_group = self.stamp.as_deref().map_or(0, |st| st.group_live);
        self.cal_len + self.wheel.len() + self.due_live + in_group
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dispatched to the model so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// How many times a schedule call was handed a time before `now`
    /// and clamped it. A correct model never schedules into the past, so
    /// this is asserted zero by the golden-digest and chaos checks.
    pub fn past_clamps(&self) -> u64 {
        self.past_clamps
    }

    /// Scheduler counters: pending high-water mark, slab capacity,
    /// dispatch/cancel counts and past-time clamps.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            pending: self.len(),
            max_pending: self.max_pending,
            slab_capacity: self.slab.capacity(),
            processed: self.processed,
            past_clamps: self.past_clamps,
            timers_pending: self.wheel.len() + self.due_live,
            timer_cancels: self.timer_cancels,
            stale_timer_pops: self.stale_timer_pops,
            ..QueueStats::default()
        }
    }

    // ---- stamp mode (sharded executor) --------------------------------

    /// Switches the queue into stamp mode: simultaneous events dispatch
    /// in [`Stamp`] order via [`EventQueue::begin_group`]. Must be called
    /// on a fresh queue, before anything is scheduled; serial queues
    /// that never call this pay only dead `Option` checks.
    pub fn enable_stamps(&mut self) {
        assert!(
            self.is_empty() && self.processed == 0,
            "enable_stamps requires a fresh queue"
        );
        self.stamp = Some(Box::new(StampState {
            stamps: Vec::new(),
            free: Vec::new(),
            of_slot: Vec::new(),
            current: None,
            emit_n: 0,
            next_root: 0,
            group: Vec::new(),
            group_live: 0,
        }));
    }

    /// Sets the root ordinal assigned to the *next* setup admission
    /// (ordinals auto-increment between calls). Shards use this to give
    /// replicated setup events identical stamps and shard-local ones
    /// their global ordinals.
    pub fn stamp_next_root(&mut self, ordinal: u32) {
        let st = self.stamp.as_deref_mut().expect("stamp mode required");
        assert!(
            st.current.is_none(),
            "setup roots only before the first pop"
        );
        st.next_root = ordinal;
    }

    /// The stamp of the pop currently dispatching, where it lies (valid
    /// until the next [`EventQueue::dispatch_member`]) — with
    /// [`EventQueue::now`], the `(time, stamp)` key the executor orders
    /// FCT records by.
    pub fn current_stamp(&self) -> &Stamp {
        let st = self.stamp.as_deref().expect("stamp mode required");
        &st.stamps[st.current.expect("handlers run inside a pop") as usize]
    }

    /// Consumes the current pop's next emission index and returns the
    /// stamp its child would get if it were admitted locally. Used to
    /// stamp a cross-shard handoff: the remote shard admits the event
    /// with this exact stamp via [`EventQueue::schedule_at_stamped`], so
    /// the dispatch order is as if the event had stayed local.
    pub fn next_child_stamp(&mut self) -> Stamp {
        let now = self.now;
        let st = self.stamp.as_deref_mut().expect("stamp mode required");
        let k = st.next_k();
        let cur = st.current.expect("handoffs originate from a pop");
        st.stamps[cur as usize].child(now, k)
    }

    /// Schedules `event` carrying an explicit admission stamp (a
    /// cross-shard handoff admitted at a window barrier).
    pub fn schedule_at_stamped(&mut self, at: SimTime, event: E, stamp: &Stamp) {
        self.schedule_entry(at, event, Some(stamp));
    }

    /// Gathers every pending event at the earliest pending time into a
    /// dispatch group ordered by [`Stamp::order`], provided that time is
    /// before `horizon`, and returns how many there are — `0` when the
    /// queue is empty or its next event is at or past `horizon`. The
    /// caller feeds `0..n` to [`EventQueue::dispatch_member`] in turn.
    ///
    /// Payloads are *not* removed here: calendar members stay in the
    /// slab and wheel members stay staged, so a member cancelling a
    /// not-yet-dispatched same-time timer goes through the ordinary
    /// `cancel_timer` path and the cancelled member is skipped at
    /// dispatch. (The model must not schedule zero-delay events, so a
    /// member can never *add* to its own group — `debug_assert`ed in the
    /// schedulers via `past_clamps` plus the strict-future check.)
    pub fn begin_group(&mut self, horizon: SimTime) -> usize {
        let Some(t) = self
            .settle()
            .map(|(key, _)| key.at())
            .filter(|&t| t < horizon)
        else {
            return 0;
        };
        let mut group = {
            let st = self.stamp.as_deref_mut().expect("stamp mode required");
            debug_assert_eq!(st.group_live, 0, "previous group fully dispatched");
            let mut g = std::mem::take(&mut st.group);
            g.clear();
            g
        };
        // `t` is the earliest pending time, so a non-empty bucket at
        // `t % SPAN` holds entries at `t` only, in `seq` order.
        let b = t.as_nanos() as usize % SPAN;
        if let Some(cal) = self.cal.as_mut().filter(|cal| cal.is_set(b)) {
            let mut slot = cal.fifo[b][0];
            cal.advance(b, NIL);
            while slot != NIL {
                group.push(GroupMember {
                    at: t,
                    slot,
                    src: GroupSrc::Calendar,
                });
                slot = self.slab.get(slot).next;
            }
            self.cal_len -= group.len();
        }
        let cal_members = group.len();
        while let Some(&d) = self.due.last() {
            if d.key.at() != t {
                break;
            }
            self.due.pop();
            if self.wheel.is_staged_live(d.node, d.generation) {
                group.push(GroupMember {
                    at: t,
                    slot: d.slot,
                    src: GroupSrc::Due {
                        node: d.node,
                        generation: d.generation,
                    },
                });
            }
            // Stale (cancelled after staging): the cancel took its payload.
        }
        let st = self.stamp.as_deref_mut().expect("stamp mode required");
        st.group_live = cal_members;
        // Borrowed stamps: the sort moves 24-byte members only.
        let stamp_of = |m: &GroupMember| &st.stamps[st.of_slot[m.slot as usize] as usize];
        group.sort_by(|a, b| stamp_of(a).order(stamp_of(b)));
        let n = group.len();
        st.group = group;
        n
    }

    /// Dispatches one gathered group member, advancing the clock to its
    /// time. Returns `None` if the member was a timer cancelled by an
    /// earlier member of the same group (serial order would never have
    /// dispatched it either).
    pub fn dispatch_member(&mut self, index: usize) -> Option<(SimTime, E)> {
        let m = {
            let st = self.stamp.as_deref().expect("stamp mode required");
            st.group[index]
        };
        match m.src {
            GroupSrc::Calendar => {
                let st = self.stamp.as_deref_mut().expect("stamp mode required");
                st.group_live -= 1;
            }
            GroupSrc::Due { node, generation } => {
                match self.wheel.release_staged(node, generation) {
                    Some(released) => {
                        debug_assert_eq!(released, m.slot);
                        self.due_live -= 1;
                    }
                    // Cancelled mid-group; cancel_timer already took the
                    // payload, freed the stamp and adjusted `due_live`.
                    None => return None,
                }
            }
        }
        {
            let st = self.stamp.as_deref_mut().expect("stamp mode required");
            // The previous pop's stamp can have no more children.
            if let Some(prev) = st.current.replace(st.of_slot[m.slot as usize]) {
                st.free.push(prev);
            }
            st.emit_n = 0;
        }
        let event = self.slab.take(m.slot).event;
        self.finish_pop(m.at);
        Some((m.at, event))
    }
}

/// Runs `sim` until the queue drains or the next event is at or past
/// `horizon`. Returns the number of events dispatched.
///
/// Events scheduled exactly at `horizon` are *not* processed, so
/// `run_until(.., t)` covers the half-open interval `[start, t)`.
pub fn run_until<S: Simulation>(
    sim: &mut S,
    queue: &mut EventQueue<S::Event>,
    horizon: SimTime,
) -> u64 {
    let mut n = 0;
    while let Some((now, ev)) = queue.pop_if(|at| at < horizon) {
        sim.handle(now, ev, queue);
        n += 1;
    }
    n
}

/// Runs `sim` until the queue drains or `keep_going` returns false
/// (checked before each event). Returns the number of events dispatched.
pub fn run_while<S: Simulation>(
    sim: &mut S,
    queue: &mut EventQueue<S::Event>,
    mut keep_going: impl FnMut(&S, SimTime) -> bool,
) -> u64 {
    let mut n = 0;
    while let Some((now, ev)) = queue.pop_if(|at| keep_going(sim, at)) {
        sim.handle(now, ev, queue);
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Entry>(), 16);
    }

    #[test]
    fn calendar_is_allocated_at_the_first_dispatch() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(10), 1);
        q.schedule_at(SimTime::from_nanos(20), 2);
        // Set-up schedules ride the wheel; building a queue costs no calendar.
        assert!(q.cal.is_none());
        assert_eq!(q.stats().timers_pending, 2);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(10), 1)));
        assert!(q.cal.is_some());
        // Now near events take the calendar and far ones the wheel; the
        // horizon is `now + SPAN`, exclusive.
        q.schedule_at(SimTime::from_nanos(10 + SPAN as u64 - 1), 3);
        q.schedule_at(SimTime::from_nanos(10 + SPAN as u64), 4);
        assert_eq!((q.cal_len, q.stats().timers_pending), (1, 2));
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![2, 3, 4]);
    }

    #[test]
    fn first_from_scans_words_and_wraps() {
        let mut cal = Calendar::new();
        assert_eq!(cal.first_from(0), None);
        for b in [5, 63, 64, 4_000, SPAN - 1] {
            assert_eq!(cal.push(b, b as u32), None);
        }
        assert_eq!(
            cal.push(64, 7),
            Some(64),
            "second entry links from the tail"
        );
        let cases = [(0, 5), (6, 63), (64, 64), (65, 4_000), (4_001, SPAN - 1)];
        for (from, first) in cases {
            assert_eq!(cal.first_from(from), Some(first), "from {from}");
        }
        cal.advance(SPAN - 1, NIL);
        assert_eq!(cal.first_from(4_001), Some(5), "wraps to the lowest bucket");
        cal.advance(64, 7);
        assert_eq!((cal.is_set(64), cal.fifo[64][0]), (true, 7));
        for b in [5, 63, 64, 4_000] {
            cal.advance(b, NIL);
        }
        assert_eq!((cal.first_from(0), cal.summary), (None, 0));
    }

    #[test]
    fn fifo_tie_breaking() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(7);
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn time_ordering() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(30), 3);
        q.schedule_at(SimTime::from_nanos(10), 1);
        q.schedule_at(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(42), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(42));
    }

    struct Chain {
        hops: u32,
        last: SimTime,
    }

    impl Simulation for Chain {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, q: &mut EventQueue<u32>) {
            self.hops = ev;
            self.last = now;
            if ev < 100 {
                q.schedule_after(now, SimDuration::from_nanos(10), ev + 1);
            }
        }
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut sim = Chain {
            hops: 0,
            last: SimTime::ZERO,
        };
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::ZERO, 1);
        // Events at 0,10,...; horizon 55 processes t=0..50 (6 events).
        let n = run_until(&mut sim, &mut q, SimTime::from_nanos(55));
        assert_eq!(n, 6);
        assert_eq!(sim.hops, 6);
        assert_eq!(sim.last, SimTime::from_nanos(50));
        // Event exactly at the horizon is not processed.
        q.schedule_at(SimTime::from_nanos(55), 999);
        let n2 = run_until(&mut sim, &mut q, SimTime::from_nanos(55));
        assert_eq!(n2, 0);
    }

    #[test]
    fn run_while_predicate() {
        let mut sim = Chain {
            hops: 0,
            last: SimTime::ZERO,
        };
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::ZERO, 1);
        let n = run_while(&mut sim, &mut q, |s, _| s.hops < 5);
        assert_eq!(n, 5);
    }

    #[test]
    fn processed_counter() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(1), ());
        q.schedule_at(SimTime::from_nanos(2), ());
        q.pop();
        q.pop();
        assert_eq!(q.processed(), 2);
    }

    #[test]
    fn past_scheduling_clamps_and_counts() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(100), 1);
        q.pop();
        assert_eq!(q.past_clamps(), 0);
        // now = 100; scheduling at 40 is a (counted) model bug.
        q.schedule_at(SimTime::from_nanos(40), 2);
        assert_eq!(q.past_clamps(), 1);
        let (at, ev) = q.pop().expect("clamped event pops");
        assert_eq!(ev, 2);
        assert_eq!(at, SimTime::from_nanos(100), "clamped up to now");
        // Scheduling exactly at `now` is legal and not counted.
        q.schedule_at(SimTime::from_nanos(100), 3);
        assert_eq!(q.past_clamps(), 1);
    }

    #[test]
    fn timer_past_scheduling_clamps_identically() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(100), 0);
        q.pop();
        // Wheel-routed timers share the clamp-and-count path.
        q.schedule_timer_at(SimTime::from_nanos(40), 7);
        assert_eq!(q.past_clamps(), 1);
        let (at, ev) = q.pop().expect("clamped timer fires");
        assert_eq!((at, ev), (SimTime::from_nanos(100), 7));
    }

    #[test]
    fn stats_report_high_water_marks() {
        let mut q = EventQueue::new();
        for i in 0..21u64 {
            q.schedule_at(SimTime::from_nanos(i), i);
        }
        for _ in 0..21 {
            q.pop();
        }
        let s = q.stats();
        assert_eq!(s.pending, 0);
        assert_eq!(s.max_pending, 21);
        assert_eq!(s.slab_capacity, 21);
        assert_eq!(s.processed, 21);
        assert_eq!(s.past_clamps, 0);
        assert_eq!(s.stale_timer_pops, 0);
    }

    #[test]
    fn insertion_numbers_order_across_2_pow_32() {
        // 2³² is where a 32-bit counter would wrap: ties on both sides
        // of it must still break in insertion order.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(1), 0);
        q.pop(); // near events take the calendar from here on
        let wrap = 1u64 << 32;
        // Calendar ties: seqs 2³² − 3 ..= 2³² + 2 in one bucket.
        q.seq = wrap - 3;
        let t = SimTime::from_nanos(100);
        for i in 1..=6 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 5, 6]);
        // Calendar entries tying with staged timers on both sides of
        // 2³², then a cancel after staging.
        q.seq = wrap - 2;
        let t = SimTime::from_nanos(200);
        q.schedule_timer_at(t, 1);
        q.schedule_at(t, 2);
        q.schedule_timer_at(t, 3);
        q.schedule_at(t, 4);
        let h = q.schedule_timer_at(t, 5);
        q.schedule_at(t, 6);
        assert_eq!(q.peek_time(), Some(t));
        assert_eq!((q.due_live, q.cal_len), (3, 3), "the timers are staged");
        assert_eq!(q.seq, wrap + 4);
        assert_eq!(q.cancel_timer(h), Some(5));
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3, 4, 6]);
        let s = q.stats();
        assert_eq!((s.pending, s.timer_cancels, s.stale_timer_pops), (0, 1, 0));
    }

    #[test]
    fn steady_state_dispatch_reuses_slab_storage() {
        // A self-rescheduling workload with bounded pending events: after
        // warm-up the slab may not grow — steady-state dispatch is
        // allocation-free.
        let mut q = EventQueue::new();
        for i in 0..64u64 {
            q.schedule_at(SimTime::from_nanos(i), i);
        }
        let warm_cap = q.stats().slab_capacity;
        for _ in 0..100_000 {
            let (now, ev) = q.pop().expect("chain never drains");
            q.schedule_after(now, SimDuration::from_nanos(1 + ev % 7), ev);
        }
        let s = q.stats();
        assert_eq!(s.pending, 64);
        assert_eq!(s.max_pending, 64);
        assert_eq!(
            s.slab_capacity, warm_cap,
            "slab must recycle slots, not allocate"
        );
    }

    #[test]
    fn timers_merge_with_calendar_events_in_key_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(5), 1);
        q.schedule_timer_at(SimTime::from_micros(3), 2);
        q.schedule_at(SimTime::from_micros(3), 3); // later seq, same time
        q.schedule_timer_at(SimTime::from_micros(9), 4);
        q.schedule_at(SimTime::from_micros(7), 5);
        let order: Vec<(u64, i32)> =
            std::iter::from_fn(|| q.pop().map(|(at, e)| (at.as_nanos() / 1_000, e))).collect();
        // Ties (3 µs) break by insertion order: timer 2 armed before
        // event 3 was scheduled.
        assert_eq!(order, vec![(3, 2), (3, 3), (5, 1), (7, 5), (9, 4)]);
        assert_eq!(q.stats().stale_timer_pops, 0);
    }

    #[test]
    fn cancel_returns_payload_and_goes_stale() {
        let mut q = EventQueue::new();
        let h = q.schedule_timer_at(SimTime::from_micros(10), 42);
        assert_eq!(q.len(), 1);
        assert_eq!(q.cancel_timer(h), Some(42));
        assert_eq!(q.cancel_timer(h), None, "double cancel");
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop(), None);
        let s = q.stats();
        assert_eq!(s.timer_cancels, 1);
        assert_eq!(s.stale_timer_pops, 0);
    }

    #[test]
    fn fired_timer_handle_is_stale() {
        let mut q = EventQueue::new();
        let h = q.schedule_timer_at(SimTime::from_micros(1), 1);
        assert_eq!(q.pop(), Some((SimTime::from_micros(1), 1)));
        assert_eq!(q.cancel_timer(h), None);
    }

    #[test]
    fn rearm_storm_keeps_pending_bounded() {
        // The tombstoning engine grew by one dead entry per re-arm; the
        // wheel must hold pending constant under arbitrarily long
        // cancel/re-arm chains.
        let mut q = EventQueue::new();
        let mut t = SimTime::ZERO;
        let mut h = q.schedule_timer_at(t + SimDuration::from_millis(2), 0u64);
        for i in 0..50_000u64 {
            t += SimDuration::from_micros(1);
            // Keep the clock moving like ACK arrivals would.
            q.schedule_at(t, u64::MAX);
            q.pop();
            assert_eq!(q.cancel_timer(h), Some(i));
            h = q.schedule_timer_at(t + SimDuration::from_millis(2), i + 1);
            assert!(q.len() <= 1, "re-arm must not tombstone");
        }
        let s = q.stats();
        assert_eq!(s.timer_cancels, 50_000);
        assert!(s.max_pending <= 2);
    }

    #[test]
    fn peek_time_sees_wheel_timers() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(5), 1);
        q.schedule_timer_at(SimTime::from_micros(40), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(40)));
        assert_eq!(q.pop(), Some((SimTime::from_micros(40), 2)));
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(5)));
    }

    #[test]
    fn peek_time_skips_cancelled_staged_timers() {
        let mut q = EventQueue::new();
        let h = q.schedule_timer_at(SimTime::from_micros(1), 1);
        q.schedule_at(SimTime::from_micros(1), 2);
        // Stage the timer by peeking, then cancel it: the phantom must
        // not be reported as the next event time's occupant.
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(1)));
        q.cancel_timer(h);
        assert_eq!(q.pop(), Some((SimTime::from_micros(1), 2)));
        assert_eq!(q.stats().stale_timer_pops, 0);
    }

    /// A deterministic branching workload driven identically through the
    /// serial `(time, seq)` pop path and the stamp-mode group path: every
    /// event is a pure function of its id, children go to the calendar or
    /// the wheel by id, and some events cancel the oldest armed timer.
    struct Branchy {
        order: Vec<u64>,
        armed: std::collections::VecDeque<TimerHandle>,
        budget: u32,
    }

    impl Branchy {
        fn new(budget: u32) -> Branchy {
            Branchy {
                order: Vec::new(),
                armed: std::collections::VecDeque::new(),
                budget,
            }
        }

        fn on_event(&mut self, now: SimTime, id: u64, q: &mut EventQueue<u64>) {
            self.order.push(id);
            if id.is_multiple_of(7) {
                if let Some(h) = self.armed.pop_front() {
                    q.cancel_timer(h);
                }
            }
            for k in 0..1 + id % 2 {
                if self.budget == 0 {
                    return;
                }
                self.budget -= 1;
                let child = id
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407 + k);
                // Coarse enough for frequent same-time groups, spread
                // enough that >STAMP_DEPTH-deep identical admission-time
                // chains (the ambiguous case) don't occur.
                let at = now + SimDuration::from_nanos(1 + child % 19);
                if child.is_multiple_of(5) {
                    self.armed.push_back(q.schedule_timer_at(at, child));
                } else {
                    q.schedule_at(at, child);
                }
            }
        }
    }

    fn branchy_roots(q: &mut EventQueue<u64>) {
        for i in 0..24u64 {
            // Colliding times across both sources.
            let at = SimTime::from_nanos(1 + (i * 13) % 5);
            if i % 2 == 0 {
                q.schedule_at(at, i * 1000 + 3);
            } else {
                q.schedule_timer_at(at, i * 1000 + 5);
            }
        }
    }

    #[test]
    fn group_dispatch_matches_serial_pop_order() {
        // Serial reference.
        let mut serial = Branchy::new(4000);
        let mut qs = EventQueue::new();
        branchy_roots(&mut qs);
        while let Some((now, id)) = qs.pop() {
            serial.on_event(now, id, &mut qs);
        }

        // Stamp-mode group dispatch of the same workload.
        let mut grouped = Branchy::new(4000);
        let mut qg = EventQueue::new();
        qg.enable_stamps();
        branchy_roots(&mut qg);
        loop {
            let n = qg.begin_group(SimTime::MAX);
            if n == 0 {
                break;
            }
            for i in 0..n {
                if let Some((now, id)) = qg.dispatch_member(i) {
                    grouped.on_event(now, id, &mut qg);
                }
            }
        }

        assert!(serial.order.len() > 1000, "workload actually branched");
        assert_eq!(grouped.order, serial.order, "dispatch order diverged");
        assert_eq!(qg.processed(), qs.processed());
        assert!(qs.stats().timer_cancels > 0, "workload cancelled timers");
        assert_eq!(qg.stats().timer_cancels, qs.stats().timer_cancels);
        assert_eq!(qg.stats().stale_timer_pops, 0);
        assert_eq!(qg.len(), 0);
        // The stamp table recycled its slots, cancelled timers' at the
        // cancel: with the queue drained only the last pop's is held.
        let st = qg.stamp.as_deref().expect("stamp mode");
        assert_eq!(st.free.len() + 1, st.stamps.len(), "stamp slot leaked");
        assert!(st.stamps.len() <= qg.stats().slab_capacity + 1);
    }

    #[test]
    fn carried_stamps_override_insertion_order() {
        // Two same-time events inserted in the order B, A but carrying
        // stamps that order A first (a handoff admitted "late" must
        // still dispatch in its origin order).
        let mut q = EventQueue::new();
        q.enable_stamps();
        let t = SimTime::from_nanos(9);
        q.schedule_at_stamped(t, "b", &Stamp::root(7));
        q.schedule_at_stamped(t, "a", &Stamp::root(2));
        assert_eq!(q.begin_group(t), 0, "horizon is exclusive");
        let n = q.begin_group(SimTime::MAX);
        let order: Vec<&str> = (0..n)
            .filter_map(|i| q.dispatch_member(i).map(|(_, e)| e))
            .collect();
        assert_eq!(order, vec!["a", "b"]);
    }

    #[test]
    fn mid_group_cancel_skips_member() {
        // An event and a timer share t=10; the event (earlier stamp)
        // cancels the timer from inside the group. The timer member must
        // dispatch as None, its stamp slot freed, exactly one event
        // processed — matching what the serial engine would do.
        let mut q = EventQueue::new();
        q.enable_stamps();
        q.schedule_at(SimTime::from_nanos(10), 1u64);
        let h = q.schedule_timer_at(SimTime::from_nanos(10), 2u64);
        assert_eq!(q.begin_group(SimTime::MAX), 2);
        let mut seen = Vec::new();
        for i in 0..2 {
            match q.dispatch_member(i) {
                Some((_, 1)) => {
                    seen.push(1);
                    assert_eq!(q.cancel_timer(h), Some(2));
                }
                Some((_, other)) => seen.push(other),
                None => seen.push(0),
            }
        }
        assert_eq!(seen, vec![1, 0], "timer skipped after mid-group cancel");
        assert_eq!(q.processed(), 1);
        assert_eq!(q.len(), 0);
        let st = q.stamp.as_deref().expect("stamp mode");
        assert_eq!(
            (st.free.len(), st.stamps.len()),
            (1, 2),
            "timer's stamp freed"
        );
    }

    #[test]
    fn stamp_roots_can_be_pinned() {
        // Explicit root ordinals reorder setup admissions (shards give
        // replicated events their *global* ordinals, not local ones).
        let mut q = EventQueue::new();
        q.enable_stamps();
        let t = SimTime::from_nanos(3);
        q.stamp_next_root(5);
        q.schedule_at(t, "late");
        q.stamp_next_root(1);
        q.schedule_at(t, "early");
        let n = q.begin_group(SimTime::MAX);
        let order: Vec<&str> = (0..n)
            .filter_map(|i| q.dispatch_member(i).map(|(_, e)| e))
            .collect();
        assert_eq!(order, vec!["early", "late"]);
    }
}
