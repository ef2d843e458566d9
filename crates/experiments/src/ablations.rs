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

/// One ablation variant: a labelled policy configuration.
#[derive(Debug, Clone)]
pub struct AblationVariant {
    /// Row label in the report.
    pub name: String,
    /// The policy to run.
    pub policy: PolicyChoice,
}

/// The standard variant set: L2BM default, weight-cap sweep, fixed
/// normalization, no pause-freeze, and the DT α family.
pub fn standard_variants() -> Vec<AblationVariant> {
    let mut v = Vec::new();
    v.push(AblationVariant {
        name: "L2BM (paper defaults)".into(),
        policy: PolicyChoice::L2bm(L2bmConfig::default()),
    });
    for cap in [0.25, 0.5] {
        v.push(AblationVariant {
            name: format!("L2BM w_max={cap}"),
            policy: PolicyChoice::L2bm(L2bmConfig {
                max_weight: cap,
                ..L2bmConfig::default()
            }),
        });
    }
    v.push(AblationVariant {
        name: "L2BM C=100us fixed".into(),
        policy: PolicyChoice::L2bm(L2bmConfig {
            normalization: Normalization::Fixed(1e-4),
            ..L2bmConfig::default()
        }),
    });
    v.push(AblationVariant {
        name: "L2BM no pause-freeze".into(),
        policy: PolicyChoice::L2bm(L2bmConfig {
            pause_freeze: false,
            ..L2bmConfig::default()
        }),
    });
    for alpha in [0.125, 0.5, 1.0] {
        v.push(AblationVariant {
            name: format!("DT a={alpha}"),
            policy: PolicyChoice::Dt(alpha),
        });
    }
    v
}

/// Runs an ablation sweep (the recorded one is [`standard_variants`]
/// at TCP load 0.8) and renders the comparison table, one row per
/// variant from its base-seed replicate.
pub fn ablations(
    scale: &ExperimentScale,
    variants: &[AblationVariant],
    tcp_load: f64,
    opts: &SweepOptions,
) -> Outcome {
    let cells: Vec<HybridConfig> = variants
        .iter()
        .map(|v| HybridConfig {
            scale: scale.clone(),
            policy: v.policy,
            rdma_load: 0.4,
            tcp_load,
        })
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
    for (reps, v) in cells.iter_mut().zip(variants) {
        // Variants share policy labels; each run is filed under its
        // variant's name instead.
        for p in reps.iter_mut() {
            p.label.clone_from(&v.name);
        }
        let p = &reps[0];
        t.row(vec![
            v.name.clone(),
            fmt_f64(p.rdma_p99_slowdown),
            fmt_f64(p.tcp_p99_slowdown),
            fmt_bytes(p.tor_occupancy_p99),
            p.pause_frames.to_string(),
            p.lossy_drops.to_string(),
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
        let v = standard_variants();
        let mut names: Vec<&String> = v.iter().map(|x| &x.name).collect();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        assert!(before >= 7);
    }

    #[test]
    fn tiny_ablation_runs_and_renders() {
        let variants = vec![
            AblationVariant {
                name: "L2BM".into(),
                policy: PolicyChoice::l2bm(),
            },
            AblationVariant {
                name: "L2BM no-freeze".into(),
                policy: PolicyChoice::L2bm(L2bmConfig {
                    pause_freeze: false,
                    ..L2bmConfig::default()
                }),
            },
        ];
        let r = ablations(
            &ExperimentScale::tiny(),
            &variants,
            0.4,
            &SweepOptions::default(),
        );
        assert_eq!(r.digests.len(), 2);
        assert!(r.text.contains("no-freeze"));
        assert_eq!(r.digests[1].0, "L2BM no-freeze load=0.4 seed 42");
    }
}
