//! A dependency-free scoped-thread worker pool for embarrassingly
//! parallel sweeps.
//!
//! The engine's experiment cells (one `(policy, load, seed)` simulation
//! each) are independent, so fanning them across OS threads is safe as
//! long as the *aggregation* stays deterministic. [`par_map`] guarantees
//! that: workers pull items from a shared atomic cursor (dynamic load
//! balancing), but every result is written into the slot of its *input
//! index*, never appended in completion order. The returned vector is
//! therefore bit-identical for any worker count, which is the contract
//! the sweep engine's reports rely on.
//!
//! # Example
//!
//! ```
//! use dcn_sim::par_map;
//! let squares = par_map(4, &[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A conservative default worker count: the machine's available
/// parallelism, or 1 when it cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` on `jobs` worker threads, returning results in
/// **input order** regardless of which worker finished which item first.
///
/// * `jobs == 0` is treated as 1; `jobs` is clamped to `items.len()` so
///   no idle thread is ever spawned.
/// * With `jobs <= 1` (or fewer than two items) the map runs inline on
///   the caller's thread — no threads, identical results.
/// * Work distribution is dynamic (an atomic cursor), so a slow cell
///   does not serialize the rest of the sweep behind it.
///
/// Determinism contract: the output at index `i` is exactly
/// `f(&items[i])`, and `f` must itself be a pure function of its input
/// (all simulation cells are: they are seeded). Under that assumption
/// the returned vector is byte-identical at any `jobs`.
///
/// # Panics
///
/// Propagates a panic from `f`: the first panicking worker's payload is
/// re-raised on the caller's thread with `resume_unwind`, so the
/// original message survives.
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs <= 1 || items.len() < 2 {
        return items.iter().map(&f).collect();
    }

    // One slot per item; workers lock only the slot they own for the
    // duration of a single store, so contention is negligible next to
    // the cost of a simulation cell.
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else {
                        break;
                    };
                    let r = f(item);
                    *slots[i].lock().expect("result slot poisoned") = Some(r);
                })
            })
            .collect();
        // Join explicitly so a worker's panic payload (not the scope's
        // generic "a scoped thread panicked") reaches the caller.
        for w in workers {
            if let Err(payload) = w.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });

    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .expect("result slot poisoned")
                .unwrap_or_else(|| panic!("worker never filled slot {i}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn maps_in_input_order() {
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(8, &items, |&x| x * 3);
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn order_is_independent_of_completion_order() {
        // Early items sleep longest, so with several workers the
        // *completion* order is roughly reversed — the output order
        // must not care.
        let items: Vec<u64> = (0..16).collect();
        let out = par_map(4, &items, |&x| {
            std::thread::sleep(std::time::Duration::from_micros((16 - x) * 200));
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn same_result_at_every_job_count() {
        let items: Vec<u64> = (0..33).collect();
        let expect: Vec<u64> = items.iter().map(|x| x.wrapping_mul(0x9E37)).collect();
        for jobs in [0, 1, 2, 3, 8, 64] {
            assert_eq!(
                par_map(jobs, &items, |&x| x.wrapping_mul(0x9E37)),
                expect,
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let count = AtomicUsize::new(0);
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(7, &items, |&x| {
            count.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(count.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(8, &empty, |&x| x).is_empty());
        assert_eq!(par_map(8, &[5u32], |&x| x + 1), vec![6]);
    }

    #[test]
    #[should_panic(expected = "cell exploded")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..8).collect();
        par_map(4, &items, |&x| {
            if x == 5 {
                panic!("cell exploded");
            }
            x
        });
    }

    #[test]
    fn default_jobs_is_at_least_one() {
        assert!(default_jobs() >= 1);
    }
}
