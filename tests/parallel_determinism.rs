//! Determinism-under-parallelism regression: the sweep engine must
//! produce bit-identical outcomes at any `--jobs` value. Every figure
//! is run serially and on worker threads; every labelled
//! [`RunResults`](dcn_fabric::RunResults) digest and the rendered
//! report must match exactly.

use dcn_experiments::{
    fig7, table2, tournament, ExperimentScale, Outcome, Runs, SweepOptions, FIGURES, SWEEPS,
};
use dcn_sim::SimDuration;

#[test]
fn fig7_cell_digests_match_between_jobs_1_and_8() {
    let run = |jobs| {
        fig7(
            &ExperimentScale::tiny(),
            &[0.4],
            &SweepOptions::new(jobs, 1),
        )
    };
    let serial = run(1);
    assert_eq!(serial.digests.len(), 4, "one run per policy");
    for jobs in [2, 4, 8] {
        assert_eq!(
            serial,
            run(jobs),
            "labelled digests and rendered report must not depend on the thread count \
             ({jobs} jobs)"
        );
    }
}

#[test]
fn multi_seed_aggregation_is_thread_count_invariant() {
    let run = |jobs| {
        fig7(
            &ExperimentScale::tiny(),
            &[0.4],
            &SweepOptions::new(jobs, 3),
        )
    };
    let serial = run(1);
    // Every replicate's digest is kept, in seed order…
    assert_eq!(serial.digests.len(), 4 * 3);
    assert_eq!(serial.digests[2].0, "L2BM load=0.4 seed 44");
    // …and the mean ± CI columns (computed across seeds) agree too.
    assert_eq!(serial, run(8));
    assert!(
        serial.text.contains('±'),
        "multi-seed report must carry CI columns"
    );
}

#[test]
fn table2_render_is_thread_count_invariant() {
    let loads = [0.4];
    let a = table2(&ExperimentScale::tiny(), &loads, &SweepOptions::new(1, 2));
    let b = table2(&ExperimentScale::tiny(), &loads, &SweepOptions::new(8, 2));
    assert_eq!(a, b);
}

/// Whether every policy of a figure files the same digests at `seed`
/// (labels read `L2BM load=0.4 seed 43`): a replicate where they do
/// runs a fabric too idle to tell the policies apart.
fn policies_agree(outcome: &Outcome, seed: u64) -> bool {
    let suffix = format!(" seed {seed}");
    let mut by_policy: Vec<(&str, Vec<u64>)> = Vec::new();
    for (label, digest) in &outcome.digests {
        let Some((policy, _)) = label.strip_suffix(&suffix).and_then(|l| l.split_once(' ')) else {
            continue;
        };
        match by_policy.iter_mut().find(|(p, _)| *p == policy) {
            Some((_, digests)) => digests.push(*digest),
            None => by_policy.push((policy, vec![*digest])),
        }
    }
    assert_eq!(by_policy.len(), 4, "four policies at seed {seed}");
    by_policy.windows(2).all(|w| w[0].1 == w[1].1)
}

#[test]
fn every_figure_outcome_is_jobs_invariant() {
    // Every row `repro` runs, the beyond-paper sweeps included, two
    // seeds each, serial vs four workers: the text, every replicate's
    // labelled digest and the (empty) violations. The tournament is the
    // slowest row and `tournament_is_thread_count_invariant` already
    // runs it serial vs eight workers on a longer window, so it runs
    // serially only. At a 1 ms window some seeds leave the tiny fabric
    // so idle that every policy runs the same (43 does), so the seeds
    // are chosen, and checked, to separate the policies in fig7.
    let seed = 13;
    let scale = ExperimentScale::tiny()
        .with_window(SimDuration::from_millis(1))
        .with_seed(seed);
    let mut alone = Vec::new();
    for (name, run) in FIGURES.iter().chain(SWEEPS) {
        let serial = run(&scale, &SweepOptions::new(1, 2));
        assert!(!serial.digests.is_empty(), "{name} ran no cell");
        assert_eq!(serial.violations, Vec::<String>::new(), "{name}");
        if *name != "tournament" {
            assert_eq!(serial, run(&scale, &SweepOptions::new(4, 2)), "{name}");
        }
        if *name == "fig7" {
            for s in [seed, seed + 1] {
                assert!(!policies_agree(&serial, s), "fig7 at seed {s} is idle");
            }
        }
        alone.push(serial);
    }
    // As `repro all` runs the paper's rows: through one store, where a
    // cell another row ran is not rerun. The beyond-paper rows the same
    // way: `chaos`, `irn` and the tournament's chaos arena share
    // L2BM/DCQCN fault cells. Each row's outcome is the one it has run
    // alone.
    let (figures, sweeps) = alone.split_at(FIGURES.len());
    for (rows, alone) in [(FIGURES, figures), (SWEEPS, sweeps)] {
        for jobs in [1, 4] {
            let runs = Runs::default();
            for ((name, run), alone) in rows.iter().zip(alone) {
                let shared = run(&scale, &SweepOptions::new(jobs, 2).sharing(&runs));
                assert_eq!(shared, *alone, "{name} through a shared store, {jobs} jobs");
            }
            assert!(runs.simulations() < runs.cells(), "{}", runs.summary());
        }
    }
}

#[test]
fn tournament_is_thread_count_invariant() {
    // The six-policy tournament mixes three cell kinds (hybrid, incast,
    // chaos) in one harness; every underlying run digest and the
    // rendered Pareto table must be byte-identical at jobs 1 vs 8, and
    // the invariant battery must pass on both.
    let scale = ExperimentScale::tiny();
    let serial = tournament(&scale, &SweepOptions::new(1, 2));
    let parallel = tournament(&scale, &SweepOptions::new(8, 2));
    // Every (arena, policy) row keeps both replicates.
    let second = serial.digests.iter().filter(|(l, _)| l.ends_with(" run 1"));
    assert_eq!(second.count(), 4 * 6, "every row keeps both replicates");
    assert_eq!(serial.violations, Vec::<String>::new());
    assert_eq!(serial, parallel, "digests, render and violations");
}
