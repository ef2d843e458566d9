//! `bench --compare A.json B.json`: did B's end-to-end medians stay
//! within the benchmark's bounds of A's, and did the simulated
//! behaviour stay bit-identical?

use std::fmt::Write as _;

use crate::json::Json;
use crate::metrics::{is_exact, END_TO_END};
use crate::stats::Summary;

/// Verdict on one (workload, end-to-end metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// Either side's q1–q3 spread is wider than the bound (or the host
    /// was oversubscribed), so the medians decide nothing.
    Unresolved,
}

/// Compares one metric. `slack` is the absolute worsening always
/// tolerated (set-up times of a few milliseconds jitter by more than
/// any relative bound).
pub fn verdict(
    a: &Summary,
    b: &Summary,
    lower_is_better: bool,
    bound: f64,
    slack: f64,
    oversubscribed: bool,
) -> Verdict {
    let allowed = (bound * a.median.abs()).max(slack);
    let too_wide = |s: &Summary| s.q3 - s.q1 > (bound * s.median.abs()).max(slack);
    let worsening = if lower_is_better {
        b.median - a.median
    } else {
        a.median - b.median
    };
    if oversubscribed || too_wide(a) || too_wide(b) {
        Verdict::Unresolved
    } else if worsening > allowed {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Absolute slack of an end-to-end metric.
fn slack_of(name: &str) -> f64 {
    if name == "setup_s" {
        0.010
    } else {
        0.0
    }
}

/// The comparison's outcome: the rendered table and whether B may land.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub table: String,
    pub regressed: usize,
    pub unresolved: usize,
    /// `(workload, metric, A, B)` of every exact metric that differs.
    pub behaviour_changes: Vec<(String, String, String, String)>,
}

impl Comparison {
    pub fn passed(&self) -> bool {
        self.regressed == 0 && self.behaviour_changes.is_empty()
    }
}

fn workloads(doc: &Json) -> &[Json] {
    doc.get("workloads").map_or(&[][..], Json::as_arr)
}

fn name_of(w: &Json) -> &str {
    w.get("name").and_then(Json::as_str).unwrap_or("?")
}

/// Compares two result documents written by `bench --out`.
pub fn compare(a: &Json, b: &Json) -> Result<Comparison, String> {
    let seed = |doc: &Json| doc.get("seed").and_then(Json::as_f64);
    if seed(a) != seed(b) {
        return Err(format!(
            "the files were measured at different seeds ({:?} and {:?}); inputs differ, \
             so neither times nor behaviour compare",
            seed(a),
            seed(b)
        ));
    }
    let mut out = Comparison {
        table: String::new(),
        regressed: 0,
        unresolved: 0,
        behaviour_changes: Vec::new(),
    };
    writeln!(
        out.table,
        "{:<28} {:<16} {:>12} {:>12} {:>16}  verdict",
        "workload", "metric", "A median", "B median", "B/A (base A)"
    )
    .expect("write to string");
    for wa in workloads(a) {
        let Some(wb) = workloads(b).iter().find(|w| name_of(w) == name_of(wa)) else {
            continue;
        };
        let flag = |w: &Json| w.get("oversubscribed").and_then(Json::as_bool) == Some(true);
        let oversubscribed = flag(wa) || flag(wb);
        for m in &END_TO_END {
            let side = |w: &Json| {
                w.get("end_to_end")
                    .and_then(|e| e.get(m.name))
                    .and_then(Summary::from_json)
            };
            let (Some(sa), Some(sb)) = (side(wa), side(wb)) else {
                return Err(format!("{}: {} is missing", name_of(wa), m.name));
            };
            let v = verdict(
                &sa,
                &sb,
                m.lower_is_better,
                m.bound,
                slack_of(m.name),
                oversubscribed,
            );
            let note = match v {
                Verdict::Ok => "ok".to_string(),
                Verdict::Regressed => {
                    out.regressed += 1;
                    format!("regressed (bound {:.1} %)", m.bound * 100.0)
                }
                Verdict::Unresolved => {
                    out.unresolved += 1;
                    format!(
                        "unresolved (spread A {:.1} %, B {:.1} %, bound {:.1} %{})",
                        sa.spread() * 100.0,
                        sb.spread() * 100.0,
                        m.bound * 100.0,
                        if oversubscribed {
                            ", oversubscribed host"
                        } else {
                            ""
                        }
                    )
                }
            };
            writeln!(
                out.table,
                "{:<28} {:<16} {:>12.6} {:>12.6} {:>16.4}  {note}",
                name_of(wa),
                m.name,
                sa.median,
                sb.median,
                sb.median / sa.median,
            )
            .expect("write to string");
        }
        for key in ["digest", "behavior_digest"] {
            let (da, db) = (wa.get(key), wb.get(key));
            if da != db {
                let show = |d: Option<&Json>| d.map_or("?".into(), Json::to_line);
                out.behaviour_changes.push((
                    name_of(wa).to_string(),
                    format!("model.{key}"),
                    show(da),
                    show(db),
                ));
            }
        }
        for (metric, va) in wa.get("per_layer").map_or(&[][..], Json::fields) {
            if !is_exact(metric) {
                continue;
            }
            let value = |v: Option<&Json>| v.and_then(|v| v.get("value")).and_then(Json::as_f64);
            let vb = wb.get("per_layer").and_then(|l| l.get(metric));
            if value(Some(va)) != value(vb) {
                out.behaviour_changes.push((
                    name_of(wa).to_string(),
                    metric.clone(),
                    format!("{:?}", value(Some(va))),
                    format!("{:?}", value(vb)),
                ));
            }
        }
    }
    if !out.behaviour_changes.is_empty() {
        writeln!(out.table, "simulated behaviour changed:").expect("write to string");
        for (w, metric, va, vb) in &out.behaviour_changes {
            writeln!(out.table, "  {w} {metric}: {va} -> {vb}").expect("write to string");
        }
    }
    writeln!(
        out.table,
        "{} regressed, {} unresolved, {} exact metrics changed",
        out.regressed,
        out.unresolved,
        out.behaviour_changes.len()
    )
    .expect("write to string");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A result document with one workload whose timings are `wall`
    /// (one value per rep) and whose event count is `events`.
    fn doc(wall: &[f64], events: f64, digest: &str, oversubscribed: bool) -> Json {
        let mut e2e = Json::obj();
        for m in &END_TO_END {
            let values: Vec<f64> = match m.name {
                "run_wall_s" => wall.to_vec(),
                "flow_done_share" => vec![1.0; wall.len()],
                _ => vec![2.0; wall.len()],
            };
            e2e.set(m.name, Summary::of(&values).to_json(m.unit, &values));
        }
        let layer = |v: f64, unit: &str| {
            Json::obj()
                .with("value", v.into())
                .with("unit", unit.into())
        };
        Json::obj().with("seed", 42.0.into()).with(
            "workloads",
            Json::Arr(vec![Json::obj()
                .with("name", "hybrid_paper_2ms".into())
                .with("oversubscribed", Json::Bool(oversubscribed))
                .with("digest", digest.into())
                .with("behavior_digest", digest.into())
                .with("end_to_end", e2e)
                .with(
                    "per_layer",
                    Json::obj()
                        .with("sim.queue.events", layer(events, "count"))
                        .with("fabric.run_s", layer(wall[0], "s")),
                )]),
        )
    }

    const STEADY: [f64; 5] = [2.00, 2.01, 2.02, 2.03, 2.04];

    #[test]
    fn same_numbers_are_ok() {
        let a = doc(&STEADY, 7_464_811.0, "0x07ab", false);
        let c = compare(&a, &a).expect("compares");
        assert!(c.passed(), "{}", c.table);
        assert_eq!((c.regressed, c.unresolved), (0, 0));
        assert!(c.table.contains("run_wall_s") && c.table.contains("1.0000"));
    }

    #[test]
    fn a_median_beyond_the_bound_is_regressed() {
        let a = doc(&STEADY, 7_464_811.0, "0x07ab", false);
        let slower: Vec<f64> = STEADY.iter().map(|w| w * 1.4).collect();
        let c = compare(&a, &doc(&slower, 7_464_811.0, "0x07ab", false)).expect("compares");
        assert_eq!(c.regressed, 1);
        assert!(!c.passed());
        assert!(c.table.contains("regressed"));
        // Faster is never a regression.
        let faster: Vec<f64> = STEADY.iter().map(|w| w * 0.5).collect();
        let c = compare(&a, &doc(&faster, 7_464_811.0, "0x07ab", false)).expect("compares");
        assert!(c.passed());
    }

    #[test]
    fn a_wide_spread_or_an_oversubscribed_host_is_unresolved() {
        let a = doc(&STEADY, 7_464_811.0, "0x07ab", false);
        let noisy = [1.0, 2.0, 2.8, 3.6, 4.4];
        let c = compare(&a, &doc(&noisy, 7_464_811.0, "0x07ab", false)).expect("compares");
        assert_eq!((c.regressed, c.unresolved), (0, 1));
        assert!(c.passed(), "unresolved rows are listed, not failed");
        assert!(c.table.contains("unresolved (spread A"));
        let slower: Vec<f64> = STEADY.iter().map(|w| w * 1.4).collect();
        let c = compare(&a, &doc(&slower, 7_464_811.0, "0x07ab", true)).expect("compares");
        assert_eq!(
            c.regressed, 0,
            "no scaling verdict on an oversubscribed host"
        );
        assert_eq!(c.unresolved, END_TO_END.len());
    }

    #[test]
    fn a_changed_count_or_digest_is_a_behaviour_change() {
        let a = doc(&STEADY, 7_464_811.0, "0x07ab", false);
        let c = compare(&a, &doc(&STEADY, 7_464_812.0, "0x07ab", false)).expect("compares");
        assert!(!c.passed());
        assert_eq!(c.behaviour_changes.len(), 1);
        assert!(c.table.contains("simulated behaviour changed"));
        let c = compare(&a, &doc(&STEADY, 7_464_811.0, "0xbeef", false)).expect("compares");
        assert_eq!(c.behaviour_changes.len(), 2, "digest and behaviour digest");
        // A timing among the per-layer metrics may differ freely.
        let other_wall = [2.1, 2.11, 2.12, 2.13, 2.14];
        assert!(compare(&a, &doc(&other_wall, 7_464_811.0, "0x07ab", false))
            .expect("compares")
            .passed());
    }

    #[test]
    fn set_up_slack_and_seed_mismatch() {
        let s = |v: &[f64]| Summary::of(v);
        // 2 ms -> 9 ms is inside the 10 ms slack; 2 ms -> 20 ms is not.
        let base = s(&[0.002, 0.002, 0.002]);
        assert_eq!(
            verdict(&base, &s(&[0.009, 0.009, 0.009]), true, 0.25, 0.010, false),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&base, &s(&[0.020, 0.020, 0.020]), true, 0.25, 0.010, false),
            Verdict::Regressed
        );
        // Higher-is-better metrics regress downwards.
        assert_eq!(
            verdict(&s(&[1.0, 1.0]), &s(&[0.9, 0.9]), false, 0.001, 0.0, false),
            Verdict::Regressed
        );
        let a = doc(&STEADY, 1.0, "0x1", false);
        let mut b = doc(&STEADY, 1.0, "0x1", false);
        if let Json::Obj(fields) = &mut b {
            fields[0].1 = 7.0.into();
        }
        assert!(compare(&a, &b).is_err());
    }
}
