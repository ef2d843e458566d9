//! The parent side: spawns one child process per run, folds the runs
//! of a workload into its end-to-end and per-layer metrics, checks
//! them against each other, and renders the results.

use std::process::Command;
use std::time::Instant;

use crate::cell::Mode;
use crate::host::{host_cores, thread_cap};
use crate::json::Json;
use crate::metrics::{is_exact, END_TO_END, PER_LAYER};
use crate::stats::{median, Summary};
use crate::workloads::{find, Kind, Workload};

/// Runs `workload` once in a fresh child process and returns the
/// child's report.
pub fn spawn_child(
    w: &Workload,
    seed: u64,
    mode: Mode,
    trace_out: Option<&str>,
) -> Result<Json, String> {
    // A traced sweep runs its cells one after another so each cell's
    // spans and tallies are its own; everything else gets two threads
    // at most, and never more than the host has.
    let jobs = if mode == Mode::Traced {
        1
    } else {
        thread_cap()
    };
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", w.name, "--seed", &seed.to_string()])
        .args(["--mode", &format!("{mode:?}").to_lowercase()])
        .args(["--jobs", &jobs.to_string()]);
    if let Some(path) = trace_out {
        cmd.args(["--trace-out", path]);
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "child {} ({mode:?}) exited with {}: {}",
            w.name,
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    Json::parse(line).map_err(|e| format!("child {} printed no report: {e}", w.name))
}

fn has(report: &Json, name: &str) -> bool {
    report.get("num").and_then(|n| n.get(name)).is_some()
}

fn num(report: &Json, name: &str) -> f64 {
    report
        .get("num")
        .and_then(|n| n.get(name))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn text<'a>(report: &'a Json, key: &str) -> &'a str {
    report.get(key).and_then(Json::as_str).unwrap_or("")
}

/// The row another workload's cross-row metrics are taken against:
/// the serial engine on the same flows, or the same fabric at 2 ms.
pub fn twin_of(name: &str) -> Option<&'static str> {
    match name {
        "fattree_k16_200us_shards2" => Some("fattree_k16_200us"),
        "hybrid_paper_10ms" => Some("hybrid_paper_2ms"),
        _ => None,
    }
}

/// Whether the recorder-only run (`sim.trace.recorder_overhead_ratio`)
/// is made for this workload: the one ROADMAP item 5 sets its ≤ 1.05
/// target on.
pub fn wants_recorder_run(name: &str) -> bool {
    name == "hybrid_paper_2ms"
}

/// The child reports a workload's metrics are folded from.
#[derive(Debug, Clone, Default)]
pub struct Runs {
    /// Timed reps: tracing and the flight recorder off.
    pub timed: Vec<Json>,
    pub traced: Option<Json>,
    pub recorder: Option<Json>,
    /// A timed rep of [`twin_of`] this workload.
    pub twin: Option<Json>,
}

/// One workload's folded results.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadReport {
    pub name: String,
    /// The host has fewer cores than the workload has threads, so its
    /// timings measure time-slicing; `--compare` calls them unresolved.
    pub oversubscribed: bool,
    /// Per end-to-end metric, in [`END_TO_END`] order: one value per
    /// timed rep.
    pub end_to_end: Vec<Vec<f64>>,
    /// Per per-layer metric, in [`PER_LAYER`] order.
    pub per_layer: Vec<f64>,
    pub digest: String,
    pub behavior_digest: String,
    /// Flows offered and flows failed over the timed reps; a rep that
    /// trips a correctness check fails all of its flows.
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl WorkloadReport {
    pub fn fold(w: &Workload, runs: &Runs) -> WorkloadReport {
        let timed = &runs.timed;
        let first = timed.first().expect("at least one timed rep");
        let mut errors = Vec::new();
        let mut attempted = 0;
        let mut failed = 0;
        let mut done_share = Vec::new();
        for rep in timed {
            let flows = num(rep, "flows") as u64;
            let violations = rep.get("violations").map_or(&[][..], Json::as_arr);
            let lost = if violations.is_empty() {
                num(rep, "unfinished") as u64
            } else {
                flows
            };
            for v in violations {
                errors.push(format!("{}: {}", w.name, v.as_str().unwrap_or("?")));
            }
            attempted += flows;
            failed += lost;
            done_share.push(1.0 - lost as f64 / flows.max(1) as f64);
        }
        let differs = |what: &str, a: &str, b: &str| {
            (a != b).then(|| format!("{}: {what}: {a} != {b}", w.name))
        };
        for rep in timed {
            errors.extend(differs(
                "digest differs between reps",
                text(first, "digest"),
                text(rep, "digest"),
            ));
        }
        for extra in runs.traced.iter().chain(&runs.recorder) {
            for v in extra.get("violations").map_or(&[][..], Json::as_arr) {
                errors.push(format!(
                    "{} (traced): {}",
                    w.name,
                    v.as_str().unwrap_or("?")
                ));
            }
            // Slicing overshoots the completing event, so only the
            // behaviour digest (everything but the event count) must
            // match; per cell, which for the sweep also proves jobs 1
            // and jobs 2 agree.
            let cells = |r: &Json| {
                r.get("cell_behavior_digests")
                    .map_or(String::new(), Json::to_line)
            };
            errors.extend(differs(
                "traced behaviour differs from timed",
                &cells(extra),
                &cells(first),
            ));
        }
        // The twin is the serial engine on the same flows (for a sharded
        // row) or the same fabric over a shorter window.
        let twin_workload = twin_of(w.name).and_then(find);
        let serial_twin = runs.twin.as_ref().filter(|_| w.shards() > 0);
        let shorter_twin = match (&runs.twin, twin_workload) {
            (Some(t), Some(tw)) if w.shards() == 0 => Some((t, tw.window_ms())),
            _ => None,
        };
        if let Some(twin) = serial_twin {
            errors.extend(differs(
                "sharded digest differs from serial",
                text(first, "digest"),
                text(twin, "digest"),
            ));
        }

        let series = |name: &str| -> Vec<f64> { timed.iter().map(|r| num(r, name)).collect() };
        let end_to_end: Vec<Vec<f64>> = END_TO_END
            .iter()
            .map(|m| match m.name {
                "flow_done_share" => done_share.clone(),
                name => series(name),
            })
            .collect();

        let wall = median(&series("run_wall_s"));
        let cpu = median(&series("run_cpu_s"));
        let rss = median(&series("peak_rss_mb"));
        let run_s = median(&series("fabric.run_s"));
        let events = num(first, "sim.queue.events");
        let traced = runs.traced.as_ref();
        let from_traced = |name: &str| traced.map_or(0.0, |t| num(t, name));
        let jobs = first.get("jobs").and_then(Json::as_f64).unwrap_or(1.0);
        // Modelled seconds per layer: count x driver ns/op.
        let queue_s = events * from_traced("sim.queue.churn_ns") / 1e9;
        let switch_s = switch_seconds(w, traced);
        let transport_s = transport_seconds(traced);
        let per_layer = PER_LAYER
            .iter()
            .map(|&(name, _, _)| match name {
                "fabric.ns_per_event" => wall * 1e9 / events,
                "fabric.events_per_s" => events / wall,
                "fabric.sim_us_per_wall_s" => num(first, "model.sim_end_us") / wall,
                "fabric.shard.cpu_over_wall" => cpu / wall,
                "fabric.shard.wall_ratio_vs_serial" => {
                    serial_twin.map_or(0.0, |t| wall / num(t, "run_wall_s"))
                }
                "fabric.shard.rss_ratio_vs_serial" => {
                    serial_twin.map_or(0.0, |t| rss / num(t, "peak_rss_mb"))
                }
                "fabric.rss_mb_per_sim_ms" => shorter_twin.map_or(0.0, |(t, ms)| {
                    (rss - num(t, "peak_rss_mb")) / (w.window_ms() - ms)
                }),
                "sim.trace.recorder_overhead_ratio" => runs
                    .recorder
                    .as_ref()
                    .map_or(0.0, |r| num(r, "run_wall_s") / wall),
                "bench.trace_overhead_ratio" => from_traced("fabric.run_s") / run_s,
                "bench.trace_overshoot_events" => {
                    traced.map_or(0.0, |t| num(t, "sim.queue.events") - events)
                }
                "bench.host_cores" => host_cores() as f64,
                "experiments.sweep.parallel_efficiency" => match w.kind {
                    Kind::Sweep { .. } => {
                        median(&series("experiments.sweep.cell_s_sum")) / (jobs * wall)
                    }
                    Kind::Single { .. } => 0.0,
                },
                "fabric.share.sim_queue" => queue_s / run_s,
                "fabric.share.switch" => switch_s / run_s,
                "fabric.share.transport" => transport_s / run_s,
                "fabric.share.unattributed" => match traced {
                    Some(_) => 1.0 - (queue_s + switch_s + transport_s) / run_s,
                    None => 0.0,
                },
                // Spans, tallies and driver costs come from the traced
                // rep; what every run states exactly is the timed reps'.
                _ => match traced {
                    Some(t) if has(t, name) && !(is_exact(name) && has(first, name)) => {
                        num(t, name)
                    }
                    _ => num(first, name),
                },
            })
            .collect();

        WorkloadReport {
            name: w.name.to_string(),
            oversubscribed: host_cores() < w.threads(),
            end_to_end,
            per_layer,
            digest: text(first, "digest").to_string(),
            behavior_digest: text(first, "behavior_digest").to_string(),
            attempted,
            failed,
            errors,
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The contract's result line: the end-to-end medians (`trace` off)
    /// or every per-layer metric (`trace` on).
    pub fn contract_line(&self, trace: bool) -> String {
        let mut metrics = Json::obj();
        if trace {
            for (&(name, unit, _), &value) in PER_LAYER.iter().zip(&self.per_layer) {
                let value = if value.is_finite() { value } else { 0.0 };
                metrics.set(name, value_with_unit(value, unit));
            }
        } else {
            for (m, values) in END_TO_END.iter().zip(&self.end_to_end) {
                metrics.set(m.name, value_with_unit(median(values), m.unit));
            }
        }
        Json::obj()
            .with("correct", Json::Bool(self.correct()))
            .with("attempted", (self.attempted.max(1) as f64).into())
            .with("failed", (self.failed as f64).into())
            .with("metrics", metrics)
            .to_line()
    }

    pub fn to_json(&self) -> Json {
        let mut e2e = Json::obj();
        for (m, values) in END_TO_END.iter().zip(&self.end_to_end) {
            e2e.set(m.name, Summary::of(values).to_json(m.unit, values));
        }
        let mut layers = Json::obj();
        for (&(name, unit, _), &value) in PER_LAYER.iter().zip(&self.per_layer) {
            layers.set(name, value_with_unit(value, unit));
        }
        Json::obj()
            .with("name", self.name.as_str().into())
            .with("oversubscribed", Json::Bool(self.oversubscribed))
            .with("correct", Json::Bool(self.correct()))
            .with("digest", self.digest.as_str().into())
            .with("behavior_digest", self.behavior_digest.as_str().into())
            .with("end_to_end", e2e)
            .with("per_layer", layers)
    }

    /// Every metric by name with its unit, for the terminal.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let flag = if self.oversubscribed {
            "  [oversubscribed: fewer cores than threads]"
        } else {
            ""
        };
        writeln!(
            out,
            "== {}  digest {}  behaviour {}{flag}",
            self.name, self.digest, self.behavior_digest
        )
        .expect("write to string");
        for (m, values) in END_TO_END.iter().zip(&self.end_to_end) {
            let s = Summary::of(values);
            writeln!(
                out,
                "  {:<40} {:>14.6} {:<6} q1 {:.6} q3 {:.6} min {:.6} max {:.6} n {}",
                m.name, s.median, m.unit, s.q1, s.q3, s.min, s.max, s.n
            )
            .expect("write to string");
        }
        for (&(name, unit, _), &value) in PER_LAYER.iter().zip(&self.per_layer) {
            writeln!(out, "  {name:<40} {value:>14.6} {unit}").expect("write to string");
        }
        for e in &self.errors {
            writeln!(out, "  CHECK FAILED: {e}").expect("write to string");
        }
        out
    }
}

fn value_with_unit(value: f64, unit: &str) -> Json {
    Json::obj()
        .with("value", value.into())
        .with("unit", unit.into())
}

/// Modelled seconds the switch layer takes: one `receive` +
/// `tx_complete` per enqueued packet, at the policy's driver cost (the
/// sweep runs DT at two α values, so DT counts twice in its mean).
fn switch_seconds(w: &Workload, traced: Option<&Json>) -> f64 {
    let Some(t) = traced else { return 0.0 };
    let cost = |policy: &str| num(t, &format!("switch.receive_tx_ns.{policy}"));
    let ns = match w.kind {
        Kind::Single { .. } => cost("l2bm"),
        Kind::Sweep { .. } => {
            (cost("l2bm") + 2.0 * cost("dt") + cost("abm") + cost("occamy") + cost("bshare")) / 6.0
        }
    };
    num(t, "switch.enqueues") * ns / 1e9
}

/// Modelled seconds the transports take: one `on_ack` per window
/// update, one RP timer per rate update, and one emission per MSS of
/// payload at the mean of the two senders' costs.
fn transport_seconds(traced: Option<&Json>) -> f64 {
    let Some(t) = traced else { return 0.0 };
    let packets = num(t, "workload.bytes") / 1_000.0;
    let emit = (num(t, "transport.dctcp.emit_ns") + num(t, "transport.dcqcn.emit_ns")) / 2.0;
    (num(t, "transport.dctcp.cwnd_updates") * num(t, "transport.dctcp.on_ack_ns")
        + num(t, "transport.dcqcn.rate_updates") * num(t, "transport.dcqcn.timer_ns")
        + packets * emit)
        / 1e9
}

/// Adds the traced rep, the recorder-only rep where one is wanted, and a
/// timed rep of the twin (`timed_twin` if the caller has one already).
fn add_traced_runs(
    w: &Workload,
    seed: u64,
    runs: &mut Runs,
    trace_out: Option<&str>,
    timed_twin: Option<Json>,
) -> Result<(), String> {
    runs.traced = Some(spawn_child(w, seed, Mode::Traced, trace_out)?);
    if wants_recorder_run(w.name) {
        runs.recorder = Some(spawn_child(w, seed, Mode::Recorder, None)?);
    }
    runs.twin = match (timed_twin, twin_of(w.name).and_then(find)) {
        (Some(known), _) => Some(known),
        (None, Some(twin)) => Some(spawn_child(twin, seed, Mode::Timed, None)?),
        (None, None) => None,
    };
    Ok(())
}

/// Contract mode: measures one workload for about `seconds` and prints
/// the result line. Returns whether every check passed.
pub fn run_contract(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Result<bool, String> {
    let start = Instant::now();
    let mut runs = Runs::default();
    if trace {
        runs.timed.push(spawn_child(w, seed, Mode::Timed, None)?);
        add_traced_runs(w, seed, &mut runs, None, None)?;
    } else {
        // Reps until the next one would run mostly past the budget; a
        // rep that starts is finished, and there is always one.
        loop {
            let rep_start = Instant::now();
            runs.timed.push(spawn_child(w, seed, Mode::Timed, None)?);
            let rep = rep_start.elapsed().as_secs_f64();
            if start.elapsed().as_secs_f64() + rep / 2.0 > seconds {
                break;
            }
        }
    }
    let report = WorkloadReport::fold(w, &runs);
    for e in &report.errors {
        eprintln!("bench: check failed: {e}");
    }
    println!("{}", report.contract_line(trace));
    Ok(report.correct())
}

/// The full benchmark: `reps` timed reps of every selected workload,
/// round-robin so host drift hits all rows equally, then one traced
/// rep each. Returns the result document and whether every check
/// passed.
pub fn run_full(
    workloads: &[&'static Workload],
    seed: u64,
    reps: usize,
    trace_out: Option<&str>,
) -> Result<(Json, bool), String> {
    let mut runs: Vec<Runs> = workloads.iter().map(|_| Runs::default()).collect();
    for rep in 1..=reps {
        for (w, r) in workloads.iter().zip(&mut runs) {
            let child = spawn_child(w, seed, Mode::Timed, None)?;
            eprintln!(
                "rep {rep}/{reps} {:<28} wall {:>8.3} s  cpu {:>8.3} s  rss {:>7.1} MB",
                w.name,
                num(&child, "run_wall_s"),
                num(&child, "run_cpu_s"),
                num(&child, "peak_rss_mb")
            );
            r.timed.push(child);
        }
    }
    for (i, w) in workloads.iter().enumerate() {
        let out = trace_out.map(|base| format!("{base}.{}.jsonl", w.name));
        // A twin that is among the selected rows has been timed already.
        let timed_twin = workloads
            .iter()
            .position(|x| Some(x.name) == twin_of(w.name))
            .and_then(|at| runs[at].timed.first().cloned());
        add_traced_runs(w, seed, &mut runs[i], out.as_deref(), timed_twin)?;
        eprintln!("traced {}", w.name);
    }
    let reports: Vec<WorkloadReport> = workloads
        .iter()
        .zip(&runs)
        .map(|(w, r)| WorkloadReport::fold(w, r))
        .collect();
    for r in &reports {
        print!("{}", r.render());
    }
    let ok = reports.iter().all(WorkloadReport::correct);
    let doc = Json::obj()
        .with("schema", "l2bm-perfbench/1".into())
        .with("seed", (seed as f64).into())
        .with("reps", (reps as f64).into())
        .with("host_cores", (host_cores() as f64).into())
        .with(
            "note",
            "the model is validated against the paper only qualitatively (EXPERIMENTS.md); \
             no error figure is given"
                .into(),
        )
        .with(
            "workloads",
            Json::Arr(reports.iter().map(WorkloadReport::to_json).collect()),
        );
    Ok((doc, ok))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::child::{self, ChildArgs};
    use crate::metrics::layer_unit;
    use crate::workloads::Fabric;
    use dcn_sim::SimDuration;

    /// `ExperimentScale::tiny()` for half a millisecond: a workload small
    /// enough for debug-build unit tests.
    fn tiny() -> Workload {
        Workload {
            name: "tiny",
            why: "",
            kind: Kind::Single {
                fabric: Fabric::ClosTiny,
                window: SimDuration::from_micros(500),
                drain: SimDuration::from_millis(100),
                shards: 0,
            },
        }
    }

    fn child_report(mode: Mode) -> Json {
        child::run(
            &tiny(),
            &ChildArgs {
                seed: 7,
                mode,
                jobs: 1,
                trace_out: None,
                driver_ops: 1_000,
                setup_seconds: 0.0,
            },
        )
    }

    fn runs() -> Runs {
        Runs {
            timed: vec![child_report(Mode::Timed), child_report(Mode::Timed)],
            traced: Some(child_report(Mode::Traced)),
            recorder: Some(child_report(Mode::Recorder)),
            twin: None,
        }
    }

    fn replace(report: &mut Json, key: &str, value: Json) {
        let Json::Obj(fields) = report else {
            panic!("a child report is an object")
        };
        fields
            .iter_mut()
            .find(|(k, _)| k == key)
            .expect("key exists")
            .1 = value;
    }

    fn keys(j: &Json) -> Vec<&str> {
        j.fields().iter().map(|(k, _)| k.as_str()).collect()
    }

    #[test]
    fn every_number_a_child_emits_is_a_registered_metric() {
        let raw = [
            "run_wall_s",
            "run_cpu_s",
            "setup_s",
            "peak_rss_mb",
            "flows",
            "unfinished",
        ];
        let traced = child_report(Mode::Traced);
        let emitted = keys(traced.get("num").expect("num"));
        assert!(emitted.len() > 60, "{emitted:?}");
        for name in emitted {
            assert!(
                layer_unit(name).is_some() || raw.contains(&name),
                "{name} is in neither metrics::PER_LAYER nor the raw set"
            );
        }
    }

    #[test]
    fn fold_checks_reps_against_each_other_and_prints_the_contract_line() {
        let report = WorkloadReport::fold(&tiny(), &runs());
        assert_eq!(report.errors, Vec::<String>::new());
        assert!(report.correct());
        assert_eq!(report.failed, 0);
        assert!(report.attempted > 0 && report.attempted.is_multiple_of(2));

        let line = Json::parse(&report.contract_line(false)).expect("one JSON object");
        assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let metrics = line.get("metrics").expect("metrics");
        let names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(keys(metrics), names);
        for (m, (_, entry)) in END_TO_END.iter().zip(metrics.fields()) {
            assert_eq!(keys(entry), ["value", "unit"]);
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            let value = entry.get("value").and_then(Json::as_f64).expect("number");
            assert!(value > 0.0, "{} must never read 0", m.name);
        }

        let traced = Json::parse(&report.contract_line(true)).expect("one JSON object");
        let layer_names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(keys(traced.get("metrics").expect("metrics")), layer_names);
        let value = |name: &str| {
            let at = layer_names
                .iter()
                .position(|n| *n == name)
                .expect("registered");
            report.per_layer[at]
        };
        assert_eq!(value("switch.enqueues"), value("switch.dequeues"));
        assert!(value("switch.enqueues") > 0.0);
        assert!(value("sim.queue.churn_ns") > 0.0);
        assert!(value("bench.trace_overhead_ratio") > 0.0);
        assert!(value("bench.trace_overshoot_events") >= 0.0);
        assert!(value("sim.trace.recorder_overhead_ratio") > 0.0);
        assert_eq!(
            value("fabric.shard.wall_ratio_vs_serial"),
            0.0,
            "no twin given"
        );
        let shares = value("fabric.share.sim_queue")
            + value("fabric.share.switch")
            + value("fabric.share.transport")
            + value("fabric.share.unattributed");
        assert!((shares - 1.0).abs() < 1e-9, "shares sum to {shares}");
    }

    #[test]
    fn a_violation_fails_every_flow_of_its_rep_and_digest_drift_is_an_error() {
        let sound = runs();
        let mut broken = sound.clone();
        let flows = num(&broken.timed[0], "flows") as u64;
        replace(
            &mut broken.timed[1],
            "violations",
            Json::Arr(vec!["past_clamps = 3, must be 0".into()]),
        );
        let report = WorkloadReport::fold(&tiny(), &broken);
        assert!(!report.correct());
        assert_eq!(report.failed, flows);
        assert_eq!(report.end_to_end[4], [1.0, 0.0], "flow_done_share per rep");
        assert!(report
            .contract_line(false)
            .starts_with("{\"correct\": false"));

        let mut drifted = sound.clone();
        replace(&mut drifted.timed[1], "digest", "0x0".into());
        let report = WorkloadReport::fold(&tiny(), &drifted);
        assert!(report.errors[0].contains("digest differs between reps"));

        let mut diverged = sound;
        let traced = diverged.traced.as_mut().expect("traced");
        replace(
            traced,
            "cell_behavior_digests",
            Json::Arr(vec!["0x0".into()]),
        );
        let report = WorkloadReport::fold(&tiny(), &diverged);
        assert!(report.errors[0].contains("traced behaviour differs"));
    }

    #[test]
    fn twins_are_workloads_and_give_the_cross_row_ratios() {
        for w in &crate::workloads::WORKLOADS {
            if let Some(twin) = twin_of(w.name) {
                assert!(find(twin).is_some(), "{twin}");
            }
        }
        // The same run as its own serial twin: both ratios are 1.
        let sharded_name = Workload {
            name: "fattree_k16_200us_shards2",
            kind: Kind::Single {
                fabric: Fabric::ClosTiny,
                window: SimDuration::from_micros(500),
                drain: SimDuration::from_millis(100),
                shards: 2,
            },
            ..tiny()
        };
        let timed = child::run(
            &sharded_name,
            &ChildArgs {
                seed: 7,
                mode: Mode::Timed,
                jobs: 1,
                trace_out: None,
                driver_ops: 1_000,
                setup_seconds: 0.0,
            },
        );
        let report = WorkloadReport::fold(
            &sharded_name,
            &Runs {
                timed: vec![timed.clone()],
                traced: None,
                recorder: None,
                twin: Some(child_report(Mode::Timed)),
            },
        );
        assert_eq!(
            report.errors,
            Vec::<String>::new(),
            "sharded digest == serial digest"
        );
        let at = |name: &str| {
            PER_LAYER
                .iter()
                .position(|m| m.0 == name)
                .expect("registered")
        };
        assert!(report.per_layer[at("fabric.shard.wall_ratio_vs_serial")] > 0.0);
        assert!(report.per_layer[at("fabric.shard.barriers")] > 0.0);
    }
}
