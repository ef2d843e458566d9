//! Golden-digest regression suite: the eviction hook added for Occamy
//! must be *free* for every other policy — zero extra events, zero
//! extra RNG draws, byte-identical results. These tests pin the exact
//! event counts and `RunResults` digests captured before the hook
//! existed, plus a clean event queue: no past-time clamp, no stale
//! timer pop.
//!
//! The two small-scale scenarios run in the plain tier-1 suite; the
//! paper-scale scenario (~7.5M events) is `#[ignore]`d for debug runs
//! and exercised in release CI with `--include-ignored`.

use dcn_experiments::{run_hybrid, run_incast, ExperimentScale, HybridConfig, IncastConfig};
use dcn_fabric::{PolicyChoice, RunResults};
use dcn_sim::SimDuration;

fn assert_golden(r: &RunResults, events: u64, digest: u64) {
    assert_eq!(r.events_processed, events, "event count drifted");
    assert_eq!(r.digest(), digest, "digest drifted");
    assert_eq!(r.rdma_stranded, 0, "no DCQCN sender may strand");
    assert_eq!(r.queue.past_clamps, 0, "no event scheduled in the past");
    assert_eq!(r.queue.stale_timer_pops, 0, "no cancelled timer may pop");
}

#[test]
fn hybrid_small_golden_digest_is_unchanged() {
    let p = run_hybrid(&HybridConfig {
        scale: ExperimentScale::small(),
        policy: PolicyChoice::l2bm(),
        rdma_load: 0.4,
        tcp_load: 0.8,
    });
    assert_golden(&p.results, 930_146, 0x972d_5f4e_f9da_3109);
    assert_eq!(p.results.drops.evicted_packets, 0, "no policy evicts here");
}

#[test]
fn incast_small_golden_digest_is_unchanged() {
    let p = run_incast(&IncastConfig::paper_defaults(
        ExperimentScale::small(),
        PolicyChoice::l2bm(),
        5,
    ));
    assert_golden(&p.results, 857_321, 0xfc40_bd96_0ecc_5a10);
    assert_eq!(p.results.drops.evicted_packets, 0, "no policy evicts here");
}

#[test]
#[ignore = "paper scale (~7.5M events); run with --include-ignored in release"]
fn hybrid_paper_golden_digest_is_unchanged() {
    let p = run_hybrid(&HybridConfig {
        scale: ExperimentScale::paper().with_window(SimDuration::from_millis(2)),
        policy: PolicyChoice::l2bm(),
        rdma_load: 0.4,
        tcp_load: 0.8,
    });
    assert_golden(&p.results, 7_464_811, 0x07ab_b15b_a35b_844d);
}
