//! Differential oracle for the timing wheel: an [`EventQueue`] mixing
//! plain events (calendar buckets, or the wheel beyond the calendar's
//! horizon) with wheel timers under cancel/re-arm storms must pop exactly
//! the `(time, value)` sequence of a reference tombstoning `BinaryHeap`
//! engine — the engine the wheel replaced — on seeded random
//! interleavings, including same-nanosecond ties between a calendar
//! entry and a timer already staged for dispatch.
//!
//! The reference models cancellation the way the old engine did: the
//! dead entry stays in the heap and is discarded when its `(time, seq)`
//! key surfaces. The wheel engine removes it at cancel time instead; a
//! timer arm still consumes a sequence number, so both engines break
//! ties identically and pop the same live sequence.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use dcn_sim::{EventQueue, SimRng, SimTime, TimerHandle};

/// The pre-wheel engine, kept as the oracle: a max-`BinaryHeap` of
/// reverse-ordered `(time, seq)` entries where cancellation tombstones
/// the value and the dead entry is popped lazily.
struct ReferenceQueue {
    heap: BinaryHeap<Scheduled>,
    tombstones: HashSet<u64>,
    seq: u64,
    now: SimTime,
}

struct Scheduled {
    at: SimTime,
    seq: u64,
    value: u64,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: earliest (time, seq) on top of the max-heap.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl ReferenceQueue {
    fn new() -> Self {
        ReferenceQueue {
            heap: BinaryHeap::new(),
            tombstones: HashSet::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Plain events and timers are the same entry kind here; both
    /// consume one sequence number, mirroring the wheel engine's shared
    /// `admit` counter.
    fn schedule_at(&mut self, at: SimTime, value: u64) {
        let at = at.max(self.now);
        self.heap.push(Scheduled {
            at,
            seq: self.seq,
            value,
        });
        self.seq += 1;
    }

    /// Tombstones a pending value; the entry itself stays queued.
    fn cancel(&mut self, value: u64) {
        self.tombstones.insert(value);
    }

    /// Pops the next *live* entry, discarding every tombstoned entry
    /// passed on the way.
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        while let Some(s) = self.heap.pop() {
            if self.tombstones.remove(&s.value) {
                continue;
            }
            self.now = s.at;
            return Some((s.at, s.value));
        }
        None
    }
}

/// A pending wheel timer on the real queue, with the bookkeeping needed
/// to drive cancels against both engines.
struct Armed {
    handle: TimerHandle,
    value: u64,
    at: SimTime,
}

struct Harness {
    real: EventQueue<u64>,
    oracle: ReferenceQueue,
    /// Timers armed on the real queue and not yet known to have fired
    /// or been cancelled.
    armed: Vec<Armed>,
    /// Handles whose timers fired or were already cancelled; cancelling
    /// these again must return `None`.
    stale: Vec<TimerHandle>,
    /// Values that left the queues by firing.
    fired: HashSet<u64>,
    next_value: u64,
}

impl Harness {
    fn new() -> Self {
        Harness {
            real: EventQueue::new(),
            oracle: ReferenceQueue::new(),
            armed: Vec::new(),
            stale: Vec::new(),
            fired: HashSet::new(),
            next_value: 0,
        }
    }

    fn push_event(&mut self, at: SimTime) {
        let v = self.next_value;
        self.next_value += 1;
        self.real.schedule_at(at, v);
        self.oracle.schedule_at(at, v);
    }

    fn arm_timer(&mut self, at: SimTime) {
        let v = self.next_value;
        self.next_value += 1;
        let handle = self.real.schedule_timer_at(at, v);
        self.oracle.schedule_at(at, v);
        self.armed.push(Armed {
            handle,
            value: v,
            at,
        });
    }

    /// Cancels the pending timer at `ix` on both engines, asserting the
    /// real queue surrenders the right payload. Returns its old value.
    fn cancel_at(&mut self, ix: usize) -> u64 {
        let Armed { handle, value, .. } = self.armed.swap_remove(ix);
        if self.fired.contains(&value) {
            // Raced: the timer fired since we recorded it. The handle
            // is stale and cancellation must be a no-op.
            assert_eq!(self.real.cancel_timer(handle), None, "fired handle");
            self.stale.push(handle);
            return value;
        }
        assert_eq!(
            self.real.cancel_timer(handle),
            Some(value),
            "live cancel must surrender the payload"
        );
        self.oracle.cancel(value);
        self.stale.push(handle);
        value
    }

    /// Pops one event from both engines and asserts they agree on its
    /// payload and time.
    fn pop_both(&mut self, context: &str) -> Option<(SimTime, u64)> {
        let a = self.real.pop();
        let b = self.oracle.pop();
        assert_eq!(a, b, "pop mismatch ({context})");
        if let Some((_, v)) = a {
            self.fired.insert(v);
            self.armed.retain(|t| t.value != v);
        }
        a
    }

    /// Drains both queues and asserts every admission was either
    /// dispatched or cancelled, exactly once.
    fn drain_and_check(&mut self, context: &str) {
        while self.pop_both(context).is_some() {}
        assert!(self.oracle.tombstones.is_empty(), "({context})");
        assert_eq!(
            self.real.processed() + self.real.stats().timer_cancels,
            self.oracle.seq,
            "dispatched + cancelled must cover every admission ({context})"
        );
        assert_eq!(self.real.stats().stale_timer_pops, 0, "({context})");
        assert_eq!(self.real.past_clamps(), 0, "({context})");
    }
}

/// One seeded interleaving of pushes, timer arms, cancels, re-arms and
/// pops. `tie_span` controls time collisions (small = heavy ties);
/// `far_span` occasionally schedules far ahead so keys cross wheel
/// windows and levels (cascade + wrap coverage).
fn run_case(seed: u64, tie_span: u64, far_span: u64) {
    run_case_steps(seed, 800, tie_span, far_span, false);
}

/// Returns the number of timers the case cancelled. With `tie_timers`,
/// half the event pushes land on a pending timer's exact nanosecond, and
/// a peek first stages due timers, so calendar entries tie with staged
/// wheel entries.
fn run_case_steps(seed: u64, steps: u32, tie_span: u64, far_span: u64, tie_timers: bool) -> u64 {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut h = Harness::new();
    for step in 0..steps {
        let at = |h: &Harness, rng: &mut SimRng| {
            let span = if far_span > 0 && rng.below(8) == 0 {
                far_span
            } else {
                tie_span
            };
            SimTime::from_nanos(h.real.now().as_nanos() + rng.below(span))
        };
        match rng.below(10) {
            0..=2 if tie_timers && !h.armed.is_empty() && rng.below(2) == 0 => {
                h.real.peek_time();
                let t = h.armed[rng.below(h.armed.len() as u64) as usize].at;
                h.push_event(t.max(h.real.now()));
            }
            0..=2 => {
                let t = at(&h, &mut rng);
                h.push_event(t);
            }
            3..=5 => {
                let t = at(&h, &mut rng);
                h.arm_timer(t);
            }
            6 if !h.armed.is_empty() => {
                // Cancel storm: kill up to 4 pending timers at once.
                for _ in 0..=rng.below(4) {
                    if h.armed.is_empty() {
                        break;
                    }
                    let ix = rng.below(h.armed.len() as u64) as usize;
                    h.cancel_at(ix);
                }
            }
            7 if !h.armed.is_empty() => {
                // Re-arm storm: cancel + immediately arm a replacement,
                // sometimes at the exact same instant (RTO push-out).
                let ix = rng.below(h.armed.len() as u64) as usize;
                h.cancel_at(ix);
                let t = at(&h, &mut rng);
                h.arm_timer(t);
            }
            8 if !h.stale.is_empty() => {
                // Double-cancel: a stale handle must stay a no-op.
                let ix = rng.below(h.stale.len() as u64) as usize;
                let handle = h.stale[ix];
                assert_eq!(h.real.cancel_timer(handle), None, "stale handle");
            }
            _ => {
                h.pop_both(&format!("seed {seed} step {step}"));
            }
        }
    }
    h.drain_and_check(&format!("seed {seed}"));
    h.real.stats().timer_cancels
}

#[test]
fn wheel_differential_random_interleaving_64_seeds() {
    for seed in 0..64 {
        run_case(0x0EE1_0000 + seed, 2_000, 0);
    }
}

#[test]
fn wheel_differential_heavy_ties_64_seeds() {
    // tie_span 3: nearly every pending key shares a timestamp, so the
    // shared insertion sequence does all the ordering work — the case
    // where a wheel that merged non-deterministically would diverge.
    for seed in 0..64 {
        run_case(0x0EE2_0000 + seed, 3, 0);
    }
}

#[test]
fn wheel_differential_cross_window_cascades_64_seeds() {
    // Far keys land in outer wheel levels and cascade inward as time
    // advances; cancels must find them at every residence.
    for seed in 0..64 {
        run_case(0x0EE3_0000 + seed, 500, 40_000_000);
    }
}

#[test]
fn wheel_differential_calendar_ties_staged_timers_64_seeds() {
    // Events pushed onto a pending timer's nanosecond after a peek has
    // staged it: the calendar entry and the staged entry tie on time, and
    // insertion order alone decides. Spans inside and across the
    // calendar's 8 192 ns horizon.
    for (i, tie_span) in [40, 9_000].into_iter().enumerate() {
        for seed in 0..64 {
            run_case_steps(
                0x0EE6_0000 + ((i as u64) << 8) + seed,
                800,
                tie_span,
                20_000,
                true,
            );
        }
    }
}

#[test]
fn wheel_differential_calendar_tie_with_a_staged_timer() {
    // One pinned instance: a timer staged by a peek, then an event on its
    // nanosecond, a second timer, a cancel, and another event.
    let mut h = Harness::new();
    h.push_event(SimTime::ZERO);
    h.pop_both("first dispatch");
    let t = SimTime::from_nanos(300);
    h.arm_timer(t);
    assert_eq!(h.real.peek_time(), Some(t));
    h.push_event(t);
    h.arm_timer(t);
    h.push_event(t);
    h.cancel_at(1);
    h.push_event(t);
    h.drain_and_check("pinned tie");
}

#[test]
fn wheel_differential_long_cancel_storm() {
    // Thousands of cancels per case, far-future ones among them, so the
    // reference heap carries many tombstones while the wheel carries
    // none; the live pops must agree all the same.
    for seed in 0..4 {
        let cancels = run_case_steps(0x0EE5_0000 + seed, 30_000, 2_000, 40_000_000, false);
        assert!(cancels > 5_000, "only {cancels} cancels: no storm");
    }
}

#[test]
fn wheel_differential_survives_renumber() {
    // The u32-seq compaction renumbers calendar entries, filed and
    // staged wheel entries in one monotone pass; pop order must be
    // unaffected even mid-storm.
    for seed in 0..16 {
        let mut rng = SimRng::seed_from_u64(0x0EE4_0000 + seed);
        let mut h = Harness::new();
        for step in 0..400 {
            let t = SimTime::from_nanos(h.real.now().as_nanos() + rng.below(50));
            match rng.below(6) {
                0 | 1 => h.push_event(t),
                2 | 3 => h.arm_timer(t),
                4 if !h.armed.is_empty() => {
                    let ix = rng.below(h.armed.len() as u64) as usize;
                    h.cancel_at(ix);
                }
                _ => {
                    h.pop_both(&format!("renumber seed {seed} step {step}"));
                }
            }
            if step % 61 == 0 {
                h.real.force_renumber();
            }
        }
        h.drain_and_check(&format!("renumber seed {seed}"));
    }
}
