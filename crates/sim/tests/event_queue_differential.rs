//! Differential property tests: the indexed 4-ary slab heap must pop
//! exactly the `(time, value)` sequence a reference `BinaryHeap`
//! implementation (the engine's previous internals) produces, on
//! seeded-random schedules with interleaved push/pop, heavy time ties,
//! past-time clamping, every small heap size (each shape of the partial
//! last sibling group), times with the packed key's top bit set, and
//! sequence renumbering in mid-stream.

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

/// One seeded scenario: a random interleaving of pushes and pops fed to
/// both queues, comparing every pop. `tie_span` controls how heavily
/// times collide (1 = everything ties), and `past_bias` occasionally
/// schedules before `now` to exercise the clamp edge.
fn run_case(seed: u64, tie_span: u64, past_bias: bool) {
    run_case_from(seed, tie_span, past_bias, 0, 0);
}

/// [`run_case`] with the clock first moved to `base`, and the real
/// queue's sequence numbers compacted every `renumber_every` steps
/// (0 = never; the reference's `u64` sequence never renumbers).
fn run_case_from(seed: u64, tie_span: u64, past_bias: bool, base: u64, renumber_every: u64) {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut new_q: EventQueue<u64> = EventQueue::new();
    let mut ref_q: ReferenceQueue<u64> = ReferenceQueue::new();
    let mut next_value = 1u64;
    let mut expected_clamps = 0u64;
    new_q.schedule_at(SimTime::from_nanos(base), 0);
    ref_q.schedule_at(SimTime::from_nanos(base), 0);
    assert_eq!(new_q.pop(), ref_q.pop());

    for step in 1..=600 {
        if renumber_every > 0 && step % renumber_every == 0 {
            new_q.force_renumber();
        }
        let push = new_q.is_empty() || rng.uniform_f64() < 0.6;
        if push {
            let now = new_q.now().as_nanos();
            let at = if past_bias && rng.uniform_f64() < 0.25 && now > 0 {
                // Up to 100 ns into the past: must clamp to `now`.
                now.saturating_sub(1 + rng.below(100))
            } else {
                now + rng.below(tie_span)
            };
            if at < now {
                expected_clamps += 1;
            }
            new_q.schedule_at(SimTime::from_nanos(at), next_value);
            ref_q.schedule_at(SimTime::from_nanos(at), next_value);
            next_value += 1;
        } else {
            assert_eq!(
                new_q.pop(),
                ref_q.pop(),
                "pop mismatch (seed {seed}, tie_span {tie_span})"
            );
        }
    }
    // Drain both; every remaining pop must agree too.
    loop {
        let (a, b) = (new_q.pop(), ref_q.pop());
        assert_eq!(a, b, "drain mismatch (seed {seed}, tie_span {tie_span})");
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

#[test]
fn differential_random_interleaving_64_seeds() {
    for seed in 0..64 {
        run_case(0xD1FF_0000 + seed, 1_000, false);
    }
}

#[test]
fn differential_heavy_ties_64_seeds() {
    // tie_span 3: almost every pending event shares a timestamp, so the
    // FIFO tie-break does all the ordering work.
    for seed in 0..64 {
        run_case(0x71E5_0000 + seed, 3, false);
    }
}

#[test]
fn differential_past_clamp_edge_64_seeds() {
    for seed in 0..64 {
        run_case(0xC1A3_0000 + seed, 500, true);
    }
}

#[test]
fn differential_packed_key_high_bit_64_seeds() {
    // Times at and above 2^63 set the top bit of the packed 128-bit key;
    // the order must stay unsigned.
    for seed in 0..64 {
        run_case_from(0xB163_0000 + seed, 1_000, true, (1 << 63) - 300, 0);
    }
}

#[test]
fn differential_renumber_mid_stream_64_seeds() {
    // Compaction between pops, with entries of both numberings pending.
    for seed in 0..64 {
        run_case_from(0x5E9_0000 + seed, 20, false, 0, 37);
    }
}

#[test]
fn differential_every_heap_size_up_to_22() {
    // Sizes 1..=22 cover a root with 1–4 children, then every partial
    // last sibling group one level down. Hold each size steady (pop one,
    // push one) so sifts run through that exact shape, with spread-out
    // times and with all-equal times (sequence-only order).
    for size in 1..=22u64 {
        for tie_span in [1, 1_000] {
            let mut rng = SimRng::seed_from_u64(0x51E_0000 + size);
            let mut new_q: EventQueue<u64> = EventQueue::new();
            let mut ref_q: ReferenceQueue<u64> = ReferenceQueue::new();
            for v in 0..size + 200 {
                if v >= size {
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

#[test]
fn differential_across_forced_renumber() {
    // The rare u32-seq compaction must not reorder anything relative to
    // the reference (whose u64 seq never renumbers).
    for seed in 0..16 {
        let mut rng = SimRng::seed_from_u64(0x5E0_u64 ^ seed);
        let mut new_q: EventQueue<u64> = EventQueue::new();
        let mut ref_q: ReferenceQueue<u64> = ReferenceQueue::new();
        for v in 0..400 {
            let at = SimTime::from_nanos(rng.below(20));
            new_q.schedule_at(at, v);
            ref_q.schedule_at(at, v);
            if v % 97 == 0 {
                new_q.force_renumber();
            }
        }
        loop {
            let (a, b) = (new_q.pop(), ref_q.pop());
            assert_eq!(a, b, "renumber mismatch (seed {seed})");
            if a.is_none() {
                break;
            }
        }
    }
}
