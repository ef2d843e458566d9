//! Differential property tests: the calendar queue (one-nanosecond
//! buckets over `[now, now + 8 192 ns)`, the timing wheel beyond) must
//! pop exactly the `(time, value)` sequence a reference `BinaryHeap`
//! implementation produces, on seeded-random schedules with interleaved
//! push/pop, heavy time ties, spans on both sides of the calendar's
//! horizon and exactly at its edge, events scheduled before the first
//! pop, past-time clamping, bucket shapes (many entries in one
//! nanosecond, runs straddling a bitmap word, the ring wrap) and times
//! with the packed key's top bit set.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use dcn_sim::{EventQueue, SimRng, SimTime};

/// The previous engine's queue, kept verbatim as the ordering oracle: a
/// std max-`BinaryHeap` of reverse-ordered `(time, seq)` entries with
/// the event payload stored inline.
struct ReferenceQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
    now: SimTime,
}

struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: earliest (time, seq) on top of the max-heap.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> ReferenceQueue<E> {
    fn new() -> Self {
        ReferenceQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    fn schedule_at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        self.heap.push(Scheduled {
            at,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        self.now = s.at;
        Some((s.at, s.event))
    }
}

/// The calendar's span: delays below it are near, the rest far.
const SPAN: u64 = 8_192;

/// One seeded scenario's knobs.
#[derive(Clone, Copy, Default)]
struct Case {
    /// Pushes land `0..tie_span` ns after `now` (1 = everything ties).
    tie_span: u64,
    /// Occasionally schedule up to 100 ns into the past (must clamp).
    past_bias: bool,
    /// Clock position of the first pop.
    base: u64,
    /// One push in eight lands exactly at `now + SPAN - 1` or `now + SPAN`.
    edges: bool,
    /// Events scheduled before the first pop, inside the first window.
    pre_dispatch: u64,
}

/// One seeded scenario: a random interleaving of pushes and pops fed to
/// both queues, comparing every pop.
fn run_case(seed: u64, case: Case) {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut new_q: EventQueue<u64> = EventQueue::new();
    let mut ref_q: ReferenceQueue<u64> = ReferenceQueue::new();
    let mut next_value = 1u64;
    let mut expected_clamps = 0u64;
    let base = case.base;
    for _ in 0..case.pre_dispatch {
        let at = SimTime::from_nanos(base + rng.below(SPAN));
        new_q.schedule_at(at, next_value);
        ref_q.schedule_at(at, next_value);
        next_value += 1;
    }
    new_q.schedule_at(SimTime::from_nanos(base), 0);
    ref_q.schedule_at(SimTime::from_nanos(base), 0);
    assert_eq!(new_q.pop(), ref_q.pop());

    for _ in 0..600 {
        let push = new_q.is_empty() || rng.uniform_f64() < 0.6;
        if push {
            let now = new_q.now().as_nanos();
            let at = if case.past_bias && rng.uniform_f64() < 0.25 && now > 0 {
                // Up to 100 ns into the past: must clamp to `now`.
                now.saturating_sub(1 + rng.below(100))
            } else if case.edges && rng.below(8) == 0 {
                now + SPAN - 1 + rng.below(2)
            } else {
                now + rng.below(case.tie_span)
            };
            if at < now {
                expected_clamps += 1;
            }
            new_q.schedule_at(SimTime::from_nanos(at), next_value);
            ref_q.schedule_at(SimTime::from_nanos(at), next_value);
            next_value += 1;
        } else {
            assert_eq!(new_q.pop(), ref_q.pop(), "pop mismatch (seed {seed})");
        }
    }
    // Drain both; every remaining pop must agree too.
    loop {
        let (a, b) = (new_q.pop(), ref_q.pop());
        assert_eq!(a, b, "drain mismatch (seed {seed})");
        if a.is_none() {
            break;
        }
    }
    assert_eq!(
        new_q.past_clamps(),
        expected_clamps,
        "clamp count (seed {seed})"
    );
}

/// Pushes `times` (each relative to the clock after a first pop at
/// `base`) to both queues, then drains and compares every pop.
fn run_fixed(base: u64, times: &[u64]) {
    let mut new_q: EventQueue<u64> = EventQueue::new();
    let mut ref_q: ReferenceQueue<u64> = ReferenceQueue::new();
    new_q.schedule_at(SimTime::from_nanos(base), 0);
    ref_q.schedule_at(SimTime::from_nanos(base), 0);
    assert_eq!(new_q.pop(), ref_q.pop());
    for (v, &dt) in times.iter().enumerate() {
        let at = SimTime::from_nanos(base + dt);
        new_q.schedule_at(at, v as u64 + 1);
        ref_q.schedule_at(at, v as u64 + 1);
    }
    loop {
        let (a, b) = (new_q.pop(), ref_q.pop());
        assert_eq!(a, b, "base {base}, times {times:?}");
        if a.is_none() {
            break;
        }
    }
}

#[test]
fn differential_random_interleaving_64_seeds() {
    for seed in 0..64 {
        let case = Case {
            tie_span: 1_000,
            ..Case::default()
        };
        run_case(0xD1FF_0000 + seed, case);
    }
}

#[test]
fn differential_heavy_ties_64_seeds() {
    // tie_span 3: almost every pending event shares a timestamp, so the
    // FIFO tie-break does all the ordering work.
    for seed in 0..64 {
        let case = Case {
            tie_span: 3,
            ..Case::default()
        };
        run_case(0x71E5_0000 + seed, case);
    }
}

#[test]
fn differential_past_clamp_edge_64_seeds() {
    for seed in 0..64 {
        let case = Case {
            tie_span: 500,
            past_bias: true,
            ..Case::default()
        };
        run_case(0xC1A3_0000 + seed, case);
    }
}

#[test]
fn differential_across_the_horizon_64_seeds() {
    // Spans just inside, exactly at and well past the calendar's span,
    // with exact-edge pushes at `now + 8 191` (the last near bucket) and
    // `now + 8 192` (the first far one), past clamps, and a batch
    // scheduled before the first pop inside the first window.
    for (i, tie_span) in [SPAN - 1, SPAN, 20_000].into_iter().enumerate() {
        for seed in 0..64 {
            let case = Case {
                tie_span,
                past_bias: seed % 2 == 0,
                edges: true,
                pre_dispatch: seed % 3 * 40,
                ..Case::default()
            };
            run_case(0x40B1_0000 + ((i as u64) << 8) + seed, case);
        }
    }
}

#[test]
fn differential_packed_key_high_bit_64_seeds() {
    // Times at and above 2^63 set the top bit of the packed 128-bit key;
    // the order must stay unsigned.
    for seed in 0..64 {
        let case = Case {
            tie_span: 1_000,
            past_bias: true,
            base: (1 << 63) - 300,
            edges: true,
            ..Case::default()
        };
        run_case(0xB163_0000 + seed, case);
    }
}

#[test]
fn differential_bucket_shapes() {
    // 1..=N entries in one nanosecond (pure FIFO within a bucket), then
    // interleaved with a neighbour bucket.
    for n in 1..=40u64 {
        run_fixed(0, &vec![5; n as usize]);
        let pairs: Vec<u64> = (0..n).map(|i| 5 + i % 2).collect();
        run_fixed(0, &pairs);
    }
    // Runs of buckets straddling a 64-bucket bitmap word, and whole
    // words skipped, at several clock offsets inside a word.
    for base in [0, 1, 62, 63, 64, 4_095, 4_096] {
        run_fixed(base, &[63, 64, 62, 65, 63, 64, 127, 128, 0, 1]);
        run_fixed(base, &[3_000, 200, 8_000, 64 * 7, 64 * 7 - 1]);
    }
    // The ring wrap: the clock near the end of the ring, entries on both
    // sides of bucket 0, at the horizon's edge, and one step past it.
    for base in [SPAN - 1, SPAN - 64, 2 * SPAN - 3, 5 * SPAN + 17] {
        run_fixed(base, &[1, 2, 3, 70, SPAN - 1, SPAN, 0, SPAN - 2, 5]);
    }
}

#[test]
fn differential_bucket_shapes_hold_steady() {
    // Hold N entries pending (pop one, push one) so buckets fill, drain
    // and refill as the clock walks around the ring, with all-equal
    // times, spread-out times and spreads that straddle the horizon.
    for size in [1u64, 2, 3, 4, 5, 17, 64, 65, 200] {
        for tie_span in [1, 1_000, SPAN + 100] {
            let mut rng = SimRng::seed_from_u64(0x51E_0000 + size);
            let mut new_q: EventQueue<u64> = EventQueue::new();
            let mut ref_q: ReferenceQueue<u64> = ReferenceQueue::new();
            new_q.schedule_at(SimTime::ZERO, 0);
            ref_q.schedule_at(SimTime::ZERO, 0);
            assert_eq!(new_q.pop(), ref_q.pop());
            for v in 1..size + 2_000 {
                if v > size {
                    assert_eq!(new_q.pop(), ref_q.pop(), "size {size} span {tie_span}");
                    assert_eq!(new_q.len() as u64, size - 1);
                }
                let at = SimTime::from_nanos(new_q.now().as_nanos() + rng.below(tie_span));
                new_q.schedule_at(at, v);
                ref_q.schedule_at(at, v);
            }
            for left in (0..size).rev() {
                assert_eq!(new_q.pop(), ref_q.pop(), "size {size} drain");
                assert_eq!(new_q.len() as u64, left);
            }
            assert_eq!(new_q.pop(), None);
        }
    }
}

#[test]
fn differential_all_identical_times() {
    // Degenerate case: one timestamp for everything — pure FIFO.
    let mut new_q: EventQueue<u64> = EventQueue::new();
    let mut ref_q: ReferenceQueue<u64> = ReferenceQueue::new();
    let t = SimTime::from_nanos(9);
    for v in 0..500 {
        new_q.schedule_at(t, v);
        ref_q.schedule_at(t, v);
    }
    for _ in 0..500 {
        assert_eq!(new_q.pop(), ref_q.pop());
    }
    assert_eq!(new_q.pop(), None);
}
