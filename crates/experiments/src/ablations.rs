//! Ablation studies of L2BM's design choices (DESIGN.md §3).
//!
//! The paper motivates three mechanisms; each has a knob here so its
//! contribution can be measured in isolation on the hybrid workload:
//!
//! * **weight cap `w_max`** — how much of the remaining buffer a
//!   fast-draining queue may claim (Eq. 3's implicit bound);
//! * **normalization `C`** — the paper's Σ τ versus a fixed constant;
//! * **PFC-diffusion mitigation** — excluding paused time from the
//!   sojourn estimate (§III-D), on or off.
//!
//! The DT α sweep is included as the reference family the paper builds
//! on.

use dcn_fabric::PolicyChoice;
use l2bm::{L2bmConfig, Normalization};

use crate::hybrid::HybridConfig;
use crate::report::{fmt_bytes, fmt_f64, Outcome, Table};
use crate::scale::ExperimentScale;
use crate::sweep::{run_hybrid_cells, sweep_outcome, SweepOptions};

/// The recorded variant set, one labelled policy each: L2BM default,
/// weight-cap sweep, fixed normalization, no pause-freeze, and the DT
/// α family.
fn variants() -> Vec<(String, PolicyChoice)> {
    let l2bm = |name: String, cfg: L2bmConfig| (name, PolicyChoice::L2bm(cfg));
    let mut v = vec![l2bm("L2BM (paper defaults)".into(), L2bmConfig::default())];
    for cap in [0.25, 0.5] {
        v.push(l2bm(
            format!("L2BM w_max={cap}"),
            L2bmConfig {
                max_weight: cap,
                ..L2bmConfig::default()
            },
        ));
    }
    v.push(l2bm(
        "L2BM C=100us fixed".into(),
        L2bmConfig {
            normalization: Normalization::Fixed(1e-4),
            ..L2bmConfig::default()
        },
    ));
    v.push(l2bm(
        "L2BM no pause-freeze".into(),
        L2bmConfig {
            pause_freeze: false,
            ..L2bmConfig::default()
        },
    ));
    for alpha in [0.125, 0.5, 1.0] {
        v.push((format!("DT a={alpha}"), PolicyChoice::Dt(alpha)));
    }
    v
}

/// The ablation sweep at RDMA load 0.4 / TCP load 0.8: one row per
/// variant from its base-seed replicate.
pub fn ablations(scale: &ExperimentScale, opts: &SweepOptions) -> Outcome {
    let tcp_load = 0.8;
    let variants = variants();
    let cells: Vec<HybridConfig> = variants
        .iter()
        .map(|&(_, policy)| HybridConfig::paper(scale, policy, tcp_load))
        .collect();
    let mut cells = run_hybrid_cells(&cells, opts);
    let mut t = Table::new(&[
        "variant",
        "rdma p99",
        "tcp p99",
        "occ p99",
        "pauses",
        "lossy drops",
    ]);
    for (reps, (name, _)) in cells.iter_mut().zip(variants) {
        // Variants share policy labels; each run is filed under its
        // variant's name instead, on this row's copies of the points.
        for p in reps.iter_mut() {
            p.label.clone_from(&name);
        }
        let p = &reps[0];
        t.row(vec![
            name,
            fmt_f64(p.rdma_p99_slowdown),
            fmt_f64(p.tcp_p99_slowdown),
            fmt_bytes(p.tor_occupancy_p99),
            p.results.pause_frames().to_string(),
            p.results.drops.lossy_packets.to_string(),
        ]);
    }
    let text = format!(
        "Ablations: hybrid web search, RDMA load 0.4, TCP load {tcp_load}\n{}",
        t.render()
    );
    sweep_outcome(text, &cells, scale.seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_set_is_labelled_uniquely() {
        let v = variants();
        let mut names: Vec<&String> = v.iter().map(|(name, _)| name).collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before);
        assert!(before >= 7);
    }

    #[test]
    fn tiny_ablation_runs_and_renders() {
        let r = ablations(&ExperimentScale::tiny(), &SweepOptions::default());
        assert_eq!(r.digests.len(), variants().len());
        assert!(r.text.contains("no pause-freeze"));
        assert_eq!(r.digests[4].0, "L2BM no pause-freeze load=0.8 seed 42");
    }
}
