//! Determinism-under-parallelism regression: the sweep engine must
//! produce bit-identical results at any `--jobs` value. A fixed Fig. 7
//! cell grid is run serially and on 2, 4 and 8 worker threads; every
//! per-cell [`RunResults`] digest and the rendered report must match
//! exactly.

use dcn_experiments::{fig7, table2, tournament, ExperimentScale, SweepOptions};

fn fig7_digests(jobs: usize, seeds: u64) -> (Vec<u64>, String) {
    let report = fig7(
        &ExperimentScale::tiny(),
        &[0.4],
        &SweepOptions::new(jobs, seeds),
    );
    let digests = report.points.iter().map(|p| p.results.digest()).collect();
    (digests, report.render())
}

#[test]
fn fig7_cell_digests_match_between_jobs_1_and_8() {
    let (serial, serial_render) = fig7_digests(1, 1);
    assert_eq!(serial.len(), 4, "one cell per policy");
    for jobs in [2, 4, 8] {
        let (parallel, parallel_render) = fig7_digests(jobs, 1);
        assert_eq!(
            serial, parallel,
            "RunResults digests must not depend on the thread count ({jobs} jobs)"
        );
        assert_eq!(
            serial_render, parallel_render,
            "rendered report must be byte-identical across --jobs values ({jobs} jobs)"
        );
    }
}

#[test]
fn multi_seed_aggregation_is_thread_count_invariant() {
    let (serial, serial_render) = fig7_digests(1, 3);
    let (parallel, parallel_render) = fig7_digests(8, 3);
    // The base replicate's full results survive aggregation unchanged…
    assert_eq!(serial, parallel);
    // …and the mean ± CI columns (computed across seeds) agree too.
    assert_eq!(serial_render, parallel_render);
    assert!(
        serial_render.contains('±'),
        "multi-seed report must carry CI columns"
    );
}

#[test]
fn table2_render_is_thread_count_invariant() {
    let opts_1 = SweepOptions::new(1, 2);
    let opts_8 = SweepOptions::new(8, 2);
    let loads = [0.4];
    let a = table2(&ExperimentScale::tiny(), &loads, &opts_1).render();
    let b = table2(&ExperimentScale::tiny(), &loads, &opts_8).render();
    assert_eq!(a, b);
}

#[test]
fn tournament_is_thread_count_invariant() {
    // The six-policy tournament mixes three cell kinds (hybrid, incast,
    // chaos) in one harness; every underlying run digest and the
    // rendered Pareto table must be byte-identical at jobs 1 vs 8, and
    // the invariant battery must pass on both.
    let scale = ExperimentScale::tiny();
    let serial = tournament(&scale, 1, 1).outcome();
    let parallel = tournament(&scale, 1, 8).outcome();
    assert_eq!(serial.violations, Vec::<String>::new());
    assert_eq!(serial, parallel, "digests, render and violations");
}
