//! Admission stamps: a shard-invariant total order over simultaneous
//! events.
//!
//! The serial engine breaks ties between events scheduled for the same
//! nanosecond by *insertion order* (a global sequence number). A
//! spatially sharded run has no global insertion counter, so it needs a
//! tie-break that (a) every shard can compute locally and (b) reproduces
//! the serial insertion order exactly — otherwise digests diverge.
//!
//! A [`Stamp`] captures the event's *admission lineage*: the admission
//! time and per-pop emission index of the event itself and of its most
//! recent ancestors (leaf first), terminated by the setup-time root
//! ordinal of the chain. Because the model schedules no zero-delay
//! events, an event's admission time is strictly before its fire time,
//! and the serial insertion order of two simultaneous events is exactly:
//!
//! 1. the earlier *admission time* wins (leaf level first; if those tie,
//!    the parents' admission times, and so on);
//! 2. if every compared admission time ties and one chain reaches its
//!    setup root first, that chain wins (setup admissions precede every
//!    runtime admission);
//! 3. if both chains reach roots, the smaller root ordinal wins;
//! 4. identical roots and times mean the chains share every ancestor
//!    pop, so the outermost (root-most) diverging emission index `k`
//!    decides — the order the shared ancestor emitted them.
//!
//! Chains are stored **run-length compressed**: consecutive levels
//! with the same emission index and a constant admission-time step
//! collapse into one arithmetic run `(t_leaf, step, k, n)`. This is
//! what makes the order exact in practice — the model's dominant deep
//! chains are *periodic* (a saturated link's back-to-back dequeue
//! chain ticks every serialization time; a paced sender ticks every
//! packet time), so a thousand-generation phase-locked run costs one
//! slot and the decisive pre-lock divergence stays visible in the
//! remaining slots. Plain depth-bounded storage provably cannot order
//! such chains: two links phase-locked for longer than any fixed depth
//! have identical recent levels all the way down.
//!
//! When a chain exceeds [`STAMP_DEPTH`] *runs*, root-most runs fold
//! into a lineage hash. Two truncated chains whose stored runs tie and
//! whose hashes are *equal* have identical dropped histories, so the
//! comparison passes through the dropped region exactly and decides by
//! root ordinal. Only truncated chains with tied stored levels and
//! *differing* hashes are *ambiguous*: the decisive divergence lies in
//! the dropped region where the hash cannot locate it. Those fall back
//! to hash order (deterministic and shard-invariant, but not provably
//! the serial order) and are counted so tests can assert the fallback
//! never fired.

use std::cell::Cell;
use std::cmp::Ordering;

use crate::time::SimTime;

/// Ancestor *runs* kept per stamp (each run compresses an arbitrarily
/// long arithmetic stretch of admissions). Deep enough that two
/// distinct lineages would need this many consecutive identical
/// admission-time *regimes* before the comparison goes ambiguous.
pub const STAMP_DEPTH: usize = 8;

thread_local! {
    /// Ambiguous stamp comparisons (truncated chains that could not be
    /// ordered exactly) made by this thread. Per thread, so a shard's
    /// count is its own whatever else the process is running.
    static AMBIGUOUS: Cell<u64> = const { Cell::new(0) };
}

/// Ambiguous stamp comparisons the calling thread has made so far.
/// Exposed per shard through [`ShardStats::stamp_ambiguities`]; asserted
/// zero by the determinism tests.
pub fn ambiguous_comparisons() -> u64 {
    AMBIGUOUS.get()
}

/// One run of admission levels: `n` consecutive admissions with the
/// same emission index `k`, at times `t_leaf, t_leaf - step, …,
/// t_leaf - (n-1)·step` (leaf-most first). A run with `n == 1` has an
/// undefined `step` (stored 0). The index `k` packs `(lane << 16) | n`
/// (see [`Stamp::lane_k`]): lanes keep emission indices comparable when
/// a replicated pop (fault application) runs a different subset of its
/// emissions on each shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    /// Admission time of the run's leaf-most (latest) level, ns.
    t: u64,
    /// Spacing between consecutive admissions; 0 when `n == 1`.
    step: u64,
    /// The shared emission index.
    k: u32,
    /// Number of levels in the run (≥ 1 for live runs).
    n: u32,
}

const EMPTY_RUN: Run = Run {
    t: 0,
    step: 0,
    k: 0,
    n: 0,
};

/// A shard-invariant admission lineage; see the module docs for the
/// total order it induces. Plain `Copy` data so handoffs can carry it
/// across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// Live runs, leaf (most recent admissions) first.
    runs: [Run; STAMP_DEPTH],
    /// Number of live runs. `nruns < STAMP_DEPTH` means the chain ends
    /// at its setup root; `nruns == STAMP_DEPTH` with `truncated` means
    /// root-side runs were dropped.
    nruns: u8,
    /// Whether root-side runs were dropped to fit `STAMP_DEPTH`.
    truncated: bool,
    /// Total stored levels (sum of the runs' `n`).
    len: u32,
    /// Setup-admission ordinal of the chain's root. Meaningful even
    /// when `truncated`: truncation drops intermediate runs, never the
    /// root identity, so two lockstep chains with identical
    /// (hash-verified) dropped histories still order by their roots.
    root: u32,
    /// Order-preserving-ish fallback for ambiguous comparisons: a hash
    /// folding in every run ever dropped by truncation. Deterministic
    /// per lineage, hence shard-invariant.
    overflow: u64,
}

impl Stamp {
    /// The stamp of an event admitted during setup (before the first
    /// pop), ordered by `ordinal`.
    pub fn root(ordinal: u32) -> Stamp {
        Stamp {
            runs: [EMPTY_RUN; STAMP_DEPTH],
            nruns: 0,
            truncated: false,
            len: 0,
            root: ordinal,
            overflow: 0,
        }
    }

    /// The stamp of an event admitted at `at` as the `k`-th emission of
    /// the pop whose own stamp is `self`.
    pub fn child(&self, at: SimTime, k: u32) -> Stamp {
        let mut s = *self;
        let at = at.as_nanos();
        if s.nruns > 0 {
            let r = &mut s.runs[0];
            // Extend the leaf run when the emission index matches and
            // the admission keeps (or establishes) its arithmetic step.
            // The model schedules no zero-delay events, so `at` is
            // strictly past the previous admission.
            if r.k == k && r.n < u32::MAX && at > r.t && (r.n == 1 || at - r.t == r.step) {
                r.step = at - r.t;
                r.t = at;
                r.n += 1;
                s.len += 1;
                return s;
            }
        }
        if (s.nruns as usize) == STAMP_DEPTH {
            // Drop the root-most run into the overflow hash.
            let d = s.runs[STAMP_DEPTH - 1];
            s.overflow = fold_run(s.overflow.max(1), &d);
            s.truncated = true;
            s.len -= d.n;
            s.runs.copy_within(0..STAMP_DEPTH - 1, 1);
        } else {
            s.runs.copy_within(0..s.nruns as usize, 1);
            s.nruns += 1;
        }
        s.runs[0] = Run {
            t: at,
            step: 0,
            k,
            n: 1,
        };
        s.len += 1;
        s
    }

    /// Writes `self.child(at, k)` into `dst`, whatever `dst` held: the
    /// queue's admission path, where the child's home is a recycled
    /// table slot and a by-value [`Stamp::child`] would copy the 216
    /// bytes twice more on their way there.
    pub fn write_child(&self, dst: &mut Stamp, at: SimTime, k: u32) {
        let at = at.as_nanos();
        let leaf = self.runs[0];
        // Same extension rule as `child`.
        if self.nruns > 0
            && leaf.k == k
            && leaf.n < u32::MAX
            && at > leaf.t
            && (leaf.n == 1 || at - leaf.t == leaf.step)
        {
            *dst = *self;
            dst.runs[0] = Run {
                t: at,
                step: at - leaf.t,
                k,
                n: leaf.n + 1,
            };
            dst.len += 1;
            return;
        }
        dst.runs[0] = Run {
            t: at,
            step: 0,
            k,
            n: 1,
        };
        // Dead runs are `EMPTY_RUN`, so shifting all of them keeps them so.
        dst.runs[1..].copy_from_slice(&self.runs[..STAMP_DEPTH - 1]);
        dst.root = self.root;
        if (self.nruns as usize) == STAMP_DEPTH {
            let d = self.runs[STAMP_DEPTH - 1];
            dst.overflow = fold_run(self.overflow.max(1), &d);
            dst.truncated = true;
            dst.nruns = self.nruns;
            dst.len = self.len - d.n + 1;
        } else {
            dst.overflow = self.overflow;
            dst.truncated = self.truncated;
            dst.nruns = self.nruns + 1;
            dst.len = self.len + 1;
        }
    }

    /// Compares two stamps of *simultaneous* events, reproducing the
    /// serial engine's insertion-order tie-break (module docs).
    pub fn order(&self, other: &Stamp) -> Ordering {
        let (a, b) = (self, other);
        // Phase 1: admission times, leaf-first. The first level whose
        // times differ decides; aligned runs (same step) skip their
        // whole overlap at once, so phase-locked periodic chains cost
        // O(runs), not O(levels).
        let mut left = a.len.min(b.len);
        let (mut ca, mut cb) = (LevelCursor::new(a), LevelCursor::new(b));
        while left > 0 {
            let (ta, tb) = (ca.time(), cb.time());
            if ta != tb {
                return ta.cmp(&tb);
            }
            let (ra, rb) = (ca.left_in_run(), cb.left_in_run());
            let m = if ra > 1 && rb > 1 && ca.step() == cb.step() {
                ra.min(rb).min(left)
            } else {
                1
            };
            ca.advance(m);
            cb.advance(m);
            left -= m;
        }
        // All compared admission times equal.
        if a.len != b.len {
            let (short, long) = if a.len < b.len { (a, b) } else { (b, a) };
            if !short.truncated {
                // The shorter chain reaches its setup root at a depth
                // where the longer still has a runtime admission;
                // setup precedes every runtime admission.
                return a.len.cmp(&b.len);
            }
            // The shorter chain truncated while the longer one stored
            // more (its leaf-side runs compressed better). If the
            // longer chain's region beyond the comparison window folds
            // to the same hash as the shorter one's dropped region,
            // the two histories are identical beyond the window —
            // shared ancestry, same grouping, same total depth — and
            // the comparison proceeds exactly: root ordinal, then the
            // outermost diverging emission index inside the window.
            match beyond_hash(long, long.len - short.len) {
                Some(h) if h == short.overflow => {
                    if a.root != b.root {
                        return a.root.cmp(&b.root);
                    }
                    return k_scan(a, b, short.len);
                }
                // Different histories (or the window cuts inside one
                // of the longer chain's runs, which identical
                // histories cannot do): the decisive divergence is in
                // the shorter chain's dropped region — undecidable.
                _ => return ambiguous(a, b),
            }
        }
        match (a.truncated, b.truncated) {
            (false, false) => {
                if a.root != b.root {
                    return a.root.cmp(&b.root);
                }
            }
            (true, true) => {
                if a.overflow != b.overflow {
                    // The dropped histories differ somewhere, and any
                    // divergence there (admission time or emission
                    // index) outranks every stored emission index. The
                    // hash cannot locate it: genuinely ambiguous.
                    return ambiguous(a, b);
                }
                // Equal overflow hashes: the dropped run sequences are
                // identical, so the serial recursion passes straight
                // through the dropped region and bottoms out at the
                // roots. This is the lockstep case — e.g. symmetric
                // incast responders paced at identical rates — and it
                // is exact: the smaller setup root admitted first.
                if a.root != b.root {
                    return a.root.cmp(&b.root);
                }
                // Same root and identical dropped history: the
                // outermost diverging emission index lies in the
                // stored region — fall through to the scan below.
            }
            // A full untruncated chain vs a truncated one of equal
            // length with equal times: the untruncated chain's deepest
            // level is its root-adjacent admission, the truncated one
            // has more history — the untruncated (setup-rooted sooner)
            // chain is earlier.
            (false, true) => return Ordering::Less,
            (true, false) => return Ordering::Greater,
        }
        // Same root and shared ancestry where compared: the outermost
        // (root-most) diverging emission index decides.
        k_scan(a, b, a.len)
    }

    /// Packs a lane and an in-lane emission index into the `k` value
    /// carried by a level: lanes order emissions of replicated pops that
    /// run different subsets per shard.
    pub fn lane_k(lane: u16, n: u32) -> u32 {
        (u32::from(lane) << 16) | (n & 0xFFFF)
    }
}

/// Leaf-first walker over a stamp's stored admission levels.
struct LevelCursor<'a> {
    runs: &'a [Run; STAMP_DEPTH],
    slot: usize,
    off: u32,
}

impl<'a> LevelCursor<'a> {
    fn new(s: &'a Stamp) -> Self {
        LevelCursor {
            runs: &s.runs,
            slot: 0,
            off: 0,
        }
    }

    /// Admission time of the current level.
    fn time(&self) -> u64 {
        let r = &self.runs[self.slot];
        r.t - u64::from(self.off) * r.step
    }

    /// The current run's step (only meaningful while `left_in_run() > 1`).
    fn step(&self) -> u64 {
        self.runs[self.slot].step
    }

    /// Levels left in the current run, including the current one.
    fn left_in_run(&self) -> u32 {
        self.runs[self.slot].n - self.off
    }

    /// Moves `m ≤ left_in_run()` levels rootward. The cursor may end up
    /// one-past-the-last level; callers bound iteration by `len`.
    fn advance(&mut self, m: u32) {
        self.off += m;
        if self.off >= self.runs[self.slot].n {
            self.slot += 1;
            self.off = 0;
        }
    }
}

/// Folds the `beyond` root-most stored levels of `long` (and its own
/// dropped history) exactly as truncation would have folded them, so a
/// shorter chain's `overflow` can be checked against the longer chain's
/// known history. Returns `None` when the window boundary cuts inside
/// one of `long`'s runs — identical histories share their inherited run
/// grouping, so a straddle proves the histories differ.
fn beyond_hash(long: &Stamp, beyond: u32) -> Option<u64> {
    let mut h = long.overflow.max(1);
    let mut left = beyond;
    let mut i = long.nruns as usize;
    while left > 0 {
        i -= 1;
        let r = long.runs[i];
        if r.n > left {
            return None;
        }
        h = fold_run(h, &r);
        left -= r.n;
    }
    Some(h)
}

/// Compares the outermost (root-most) diverging emission index over the
/// leaf-most `window` levels of each chain, root-first. Everything
/// root-ward of the window is known to tie. Runs may be grouped
/// differently when the chains differ only in emission indices, so the
/// walk is element-wise with run-sized skips.
fn k_scan(a: &Stamp, b: &Stamp, window: u32) -> Ordering {
    let (mut ia, mut rema) = skip_rootmost(a, a.len - window);
    let (mut ib, mut remb) = skip_rootmost(b, b.len - window);
    let mut left = window;
    while left > 0 {
        if rema == 0 {
            ia -= 1;
            rema = a.runs[ia].n;
        }
        if remb == 0 {
            ib -= 1;
            remb = b.runs[ib].n;
        }
        match a.runs[ia].k.cmp(&b.runs[ib].k) {
            Ordering::Equal => {}
            ne => return ne,
        }
        let m = rema.min(remb).min(left);
        rema -= m;
        remb -= m;
        left -= m;
    }
    // Fully identical lineage (times, emission indices, root and any
    // dropped history): the same event.
    Ordering::Equal
}

/// Positions a root-first walk past the `skip` root-most stored levels:
/// returns the slot index to resume above and the levels left in it.
fn skip_rootmost(s: &Stamp, mut skip: u32) -> (usize, u32) {
    let mut i = s.nruns as usize;
    while skip > 0 {
        i -= 1;
        let n = s.runs[i].n;
        if n <= skip {
            skip -= n;
        } else {
            return (i, n - skip);
        }
    }
    (i, 0)
}

/// Counts and deterministically resolves an ambiguous comparison (see
/// module docs): fall back to the lineage hash, then stored length and
/// root — shard-invariant, antisymmetric, but not provably the serial
/// order.
#[cold]
fn ambiguous(a: &Stamp, b: &Stamp) -> Ordering {
    AMBIGUOUS.set(AMBIGUOUS.get() + 1);
    if std::env::var_os("STAMP_DEBUG").is_some() {
        eprintln!("AMBIG a={a:?}\n      b={b:?}");
    }
    a.overflow
        .cmp(&b.overflow)
        .then_with(|| a.len.cmp(&b.len))
        .then_with(|| a.root.cmp(&b.root))
}

/// Folds one dropped run into a lineage hash.
#[inline]
fn fold_run(h: u64, r: &Run) -> u64 {
    fnv_fold(
        fnv_fold(fnv_fold(fnv_fold(h, r.t), r.step), u64::from(r.k)),
        u64::from(r.n),
    )
}

#[inline]
fn fnv_fold(mut h: u64, x: u64) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for byte in x.to_le_bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// A `(fire time, stamp)` dispatch key: the shard-invariant equivalent
/// of the serial engine's `(time, seq)`.
#[derive(Debug, Clone, Copy)]
pub struct StampKey {
    /// The event's fire time.
    pub at: SimTime,
    /// Its admission stamp.
    pub stamp: Stamp,
}

impl StampKey {
    /// Total order: fire time, then stamp order.
    pub fn order(&self, other: &StampKey) -> Ordering {
        self.at
            .cmp(&other.at)
            .then_with(|| self.stamp.order(&other.stamp))
    }
}

/// Per-shard executor counters, merged into run results so barrier and
/// handoff overhead is observable rather than guessed. Diagnostics
/// only — excluded from result digests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Events this shard dispatched (before replica corrections).
    pub events_processed: u64,
    /// Synchronization windows this shard participated in.
    pub barriers: u64,
    /// Largest number of events dispatched within one window.
    pub max_window_events: u64,
    /// Cross-shard handoffs this shard sent.
    pub handoffs_out: u64,
    /// Cross-shard handoffs this shard admitted.
    pub handoffs_in: u64,
    /// Ambiguous stamp comparisons this shard's thread made (must be 0
    /// for the serial-order guarantee to hold; asserted by tests). The
    /// run's total is the sum over shards.
    pub stamp_ambiguities: u64,
    /// Pops dispatched after this shard's last owed flow completion,
    /// which took the snapshot-and-journal path because the stop key
    /// could still land before them.
    pub journaled_pops: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn roots_order_by_ordinal() {
        assert_eq!(Stamp::root(1).order(&Stamp::root(2)), Ordering::Less);
        assert_eq!(Stamp::root(2).order(&Stamp::root(2)), Ordering::Equal);
        assert_eq!(Stamp::root(3).order(&Stamp::root(2)), Ordering::Greater);
    }

    #[test]
    fn earlier_admission_time_wins_regardless_of_root() {
        // Root 5 admitted a child at t=1; root 2 admitted one at t=100.
        // Serial insertion order: the t=1 admission came first.
        let x = Stamp::root(5).child(t(1), 0);
        let y = Stamp::root(2).child(t(100), 0);
        assert_eq!(x.order(&y), Ordering::Less);
    }

    #[test]
    fn root_termination_beats_runtime_admission() {
        // A setup-admitted event vs a runtime-admitted one: setup came
        // first even though its root ordinal is larger.
        let x = Stamp::root(9);
        let y = Stamp::root(0).child(t(5), 0);
        assert_eq!(x.order(&y), Ordering::Less);
        assert_eq!(y.order(&x), Ordering::Greater);
        // Deeper: chains equal for one level, then one roots out.
        let a = Stamp::root(9).child(t(7), 3);
        let b = Stamp::root(0).child(t(2), 0).child(t(7), 0);
        assert_eq!(a.order(&b), Ordering::Less);
    }

    #[test]
    fn same_parent_orders_by_emission_index() {
        let p = Stamp::root(0).child(t(10), 2);
        let a = p.child(t(20), 0);
        let b = p.child(t(20), 1);
        assert_eq!(a.order(&b), Ordering::Less);
        assert_eq!(b.order(&a), Ordering::Greater);
        assert_eq!(a.order(&a), Ordering::Equal);
    }

    #[test]
    fn outermost_divergence_decides_on_equal_times() {
        // Two pops P0 (k=0) and P1 (k=1) of the same parent fire at the
        // same time and each admits a child at the same time: the
        // children order by the *ancestor* divergence, not the leaf.
        let parent = Stamp::root(0);
        let p0 = parent.child(t(10), 0);
        let p1 = parent.child(t(10), 1);
        let c0 = p0.child(t(20), 5);
        let c1 = p1.child(t(20), 0);
        assert_eq!(c0.order(&c1), Ordering::Less, "ancestor k decides");
    }

    #[test]
    fn lane_packing_preserves_order() {
        assert!(Stamp::lane_k(0, 7) < Stamp::lane_k(1, 0));
        assert!(Stamp::lane_k(1, 3) < Stamp::lane_k(1, 4));
    }

    #[test]
    fn lockstep_chains_order_by_root_beyond_truncation() {
        // Two chains in perfect lockstep (identical admission times and
        // emission indices every generation) driven far past the stored
        // depth: their dropped histories stay identical, so the order
        // must remain the exact serial order — root 0 before root 1 —
        // with no ambiguity, and must not collapse to Equal (distinct
        // events must never tie, or dispatch order falls back to queue
        // internals).
        let before = ambiguous_comparisons();
        let mut a = Stamp::root(0);
        let mut b = Stamp::root(1);
        for gen in 1..=(4 * STAMP_DEPTH as u64) {
            a = a.child(t(gen * 10), 1);
            b = b.child(t(gen * 10), 1);
            assert_eq!(a.order(&b), Ordering::Less, "generation {gen}");
            assert_eq!(b.order(&a), Ordering::Greater, "generation {gen}");
        }
        assert_eq!(a.order(&a), Ordering::Equal, "identical stamps tie");
        assert_eq!(
            ambiguous_comparisons(),
            before,
            "lockstep ordering is exact, not ambiguous"
        );
    }

    #[test]
    fn periodic_chains_compress_instead_of_truncating() {
        // A phase-locked periodic chain (constant step, constant k) —
        // a saturated link's dequeue chain — collapses into one run no
        // matter how long it gets, so a pre-lock divergence stays
        // decidable exactly.
        let mut a = Stamp::root(0).child(t(5), 0);
        let mut b = Stamp::root(0).child(t(6), 0);
        for gen in 1..=(4 * STAMP_DEPTH as u64) {
            a = a.child(t(100 + gen * 10), 1);
            b = b.child(t(100 + gen * 10), 1);
        }
        let before = ambiguous_comparisons();
        // The divergence (t=5 vs t=6) is 32 generations deep, far past
        // any plain depth bound, yet still stored: exact order, no
        // ambiguity.
        assert_eq!(a.order(&b), Ordering::Less);
        assert_eq!(b.order(&a), Ordering::Greater);
        assert_eq!(ambiguous_comparisons(), before);
    }

    #[test]
    fn diverged_dropped_histories_are_counted_ambiguous() {
        // Alternating emission indices defeat run compression (one run
        // per generation), so deep chains truncate; a divergence buried
        // in the dropped region is unrecoverable, and the comparison
        // must fall back to hash order and count itself.
        let mut a = Stamp::root(0).child(t(5), 0);
        let mut b = Stamp::root(0).child(t(6), 0);
        for gen in 1..=(2 * STAMP_DEPTH as u64) {
            a = a.child(t(100 + gen * 10), 1 + (gen as u32 % 2));
            b = b.child(t(100 + gen * 10), 1 + (gen as u32 % 2));
        }
        assert!(a.truncated && b.truncated, "alternating k defeats runs");
        let before = ambiguous_comparisons();
        let ord = a.order(&b);
        assert_ne!(ord, Ordering::Equal);
        assert_eq!(b.order(&a), ord.reverse(), "still antisymmetric");
        assert_eq!(ambiguous_comparisons(), before + 2);
    }

    #[test]
    fn write_child_matches_child_on_seeded_chains() {
        // 64 chains of 2 000 admissions, each admission drawn to either
        // keep the leaf run's index and step (extension) or break one of
        // them (a fresh run — which, once the chain is full, truncates
        // and then folds the overflow hash again and again). The child
        // is written over stale data every time: the chain's own
        // grandparent.
        use crate::rng::SimRng;
        let (mut extended, mut fresh, mut truncated, mut refolded) = (0u32, 0u32, 0u32, 0u32);
        for seed in 0..64u64 {
            let mut rng = SimRng::seed_from_u64(0x57A3 + seed);
            let mut parent = Stamp::root(seed as u32);
            let mut stale = Stamp::root(999).child(t(1), 7);
            let (mut at, mut step, mut k) = (10u64, 8u64, 0u32);
            for _ in 0..2_000 {
                match rng.below(4) {
                    0 => k = rng.below(3) as u32,
                    1 => step = 1 + rng.below(40),
                    _ => {}
                }
                at += step;
                let by_value = parent.child(t(at), k);
                parent.write_child(&mut stale, t(at), k);
                assert_eq!(stale, by_value, "seed {seed} at {at}");
                // Against a third stamp — a sibling emission of the
                // same pop — both must order alike, either way round.
                let sibling = parent.child(t(at), k + 1);
                assert_eq!(stale.order(&sibling), by_value.order(&sibling));
                assert_eq!(sibling.order(&stale), sibling.order(&by_value));
                if by_value.nruns == parent.nruns && by_value.len == parent.len + 1 {
                    extended += 1;
                } else if !by_value.truncated {
                    fresh += 1;
                } else if !parent.truncated {
                    truncated += 1;
                } else {
                    refolded += 1;
                }
                std::mem::swap(&mut parent, &mut stale);
            }
        }
        assert!(extended > 10_000 && fresh > 100, "{extended} {fresh}");
        assert_eq!(truncated, 64, "every chain outgrows the stored depth");
        assert!(refolded > 10_000, "{refolded}");
    }

    #[test]
    fn matches_serial_insertion_order_on_random_trees() {
        // Build a random admission forest with colliding times and check
        // stamp order == serial insertion order for every simultaneous
        // pair. Times are coarse (many collisions) to stress the tie
        // paths.
        use crate::rng::SimRng;
        let mut rng = SimRng::seed_from_u64(0xD15EA5E);
        // A faithful serial run: pop the minimal (fire, seq) pending
        // event, admit its children with the next seq numbers — exactly
        // how the real queue assigns insertion order.
        let mut seq = 0u64;
        let mut pending: Vec<(Stamp, u64, u64)> = Vec::new();
        for root in 0..4u32 {
            pending.push((Stamp::root(root), seq, 1 + rng.below(3)));
            seq += 1;
        }
        let mut done: Vec<(Stamp, u64, u64)> = Vec::new();
        while !pending.is_empty() {
            let pos = pending
                .iter()
                .enumerate()
                .min_by_key(|&(_, &(_, s, f))| (f, s))
                .map(|(i, _)| i)
                .expect("non-empty");
            let (stamp, sq, fire) = pending.swap_remove(pos);
            done.push((stamp, sq, fire));
            if done.len() + pending.len() < 4000 {
                for k in 0..rng.below(4) {
                    // Coarse enough that simultaneous events are common,
                    // spread enough that identical admission-time chains
                    // deeper than STAMP_DEPTH (which would be ambiguous)
                    // stay as unlikely as in the real model.
                    let delay = 1 + rng.below(17);
                    pending.push((stamp.child(t(fire), k as u32), seq, fire + delay));
                    seq += 1;
                }
            }
        }
        assert!(done.len() > 2000, "tree actually grew");
        let before = ambiguous_comparisons();
        for i in 0..done.len() {
            for j in (i + 1)..done.len() {
                let (sa, qa, fa) = &done[i];
                let (sb, qb, fb) = &done[j];
                if fa != fb {
                    continue; // only simultaneous events are compared
                }
                assert_eq!(
                    sa.order(sb),
                    qa.cmp(qb),
                    "stamp order must equal serial insertion order\n a={sa:?}\n b={sb:?}"
                );
            }
        }
        assert_eq!(
            ambiguous_comparisons(),
            before,
            "no ambiguous comparisons on depth-{STAMP_DEPTH} chains"
        );
    }
}
