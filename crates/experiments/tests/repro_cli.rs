//! `repro` refuses arguments it would otherwise silently ignore: a
//! `--check` on an experiment that has no check mode used to run the
//! plain sweep and exit 0 (a gate that gates nothing), a zero
//! `--window-ms` used to print an all-zero table, a zero `--seeds` used
//! to run one seed and print its table, one `--window-ms` whose nanoseconds
//! overflow a `u64` used to run a wrapped window, `chaos`/`irn` used to
//! run their fixed fault seeds whatever `--seeds` asked for, and
//! `--check` used to run at tiny scale at jobs 1 and 8 whatever
//! `--scale`, `--seed`, `--window-ms` or `--jobs` asked for. An
//! explicit `--seeds 1` is honoured, and `--seed` and `--window-ms`
//! hold whether they come before or after `--scale`.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn meaningless_arguments_exit_1_with_a_message() {
    for (args, message) in [
        (
            &["fig7", "--scale", "tiny", "--check"][..],
            "no --check mode",
        ),
        (
            &["fig7", "--scale", "tiny", "--window-ms", "0"][..],
            "--window-ms must be at least 1",
        ),
        (
            &["fig3a", "--scale", "tiny", "--seeds", "0"][..],
            "--seeds must be at least 1",
        ),
        (
            &["fig3a", "--scale", "tiny", "--window-ms", "18446744073710"][..],
            "--window-ms 18446744073710 overflows the simulated clock",
        ),
        (
            &["chaos", "--scale", "tiny", "--seeds", "2"][..],
            "'chaos' takes no --seeds",
        ),
        (
            &["chaos", "--check", "--shards", "2"][..],
            "unknown flag '--shards'",
        ),
        (
            &["irn", "--scale", "tiny", "--seeds", "1"][..],
            "'irn' takes no --seeds",
        ),
        (
            &["irn", "--scale", "tiny", "--shards", "auto"][..],
            "unknown flag '--shards'",
        ),
        (&["trace", "--scale", "tiny"][..], "'trace' takes no flags"),
        (
            &["irn", "--check", "--scale", "paper"][..],
            "'irn --check' takes no --scale",
        ),
        (
            &["irn", "--check", "--seed", "7"][..],
            "'irn --check' takes no --seed",
        ),
        (
            &["irn", "--check", "--window-ms", "9"][..],
            "'irn --check' takes no --window-ms",
        ),
        (
            &["irn", "--check", "--jobs", "3"][..],
            "'irn --check' takes no --jobs",
        ),
        (
            &["tournament", "--check", "--shards", "2"][..],
            "unknown flag '--shards'",
        ),
        (
            &["chaos", "--scale", "small", "--check"][..],
            "'chaos --check' takes no --scale",
        ),
    ] {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: no table is printed");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
    }
}

#[test]
fn tournament_honours_an_explicit_single_seed() {
    let out = repro(&[
        "tournament",
        "--scale",
        "tiny",
        "--seeds",
        "1",
        "--jobs",
        "2",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("x 1 seed(s)"), "{stdout}");
    assert!(
        !stdout.contains('±'),
        "one replicate renders bare means: {stdout}"
    );
}

#[test]
fn seed_and_window_survive_a_later_scale() {
    let out = repro(&[
        "fig3a",
        "--seed",
        "7",
        "--window-ms",
        "1",
        "--scale",
        "tiny",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.contains("window 1.000ms, seed 7"), "{stderr}");
}
