//! `repro` refuses arguments it would otherwise silently ignore: a
//! `--check` on an experiment that has no check mode used to run the
//! plain sweep and exit 0 (a gate that gates nothing), a zero
//! `--window-ms` used to print an all-zero table, `chaos`/`irn` used to
//! run their fixed fault seeds serially whatever `--seeds` or
//! `--shards` asked for, and `--check` used to run at tiny scale at
//! jobs 1 and 8 whatever `--scale`, `--seed`, `--window-ms`, `--jobs`
//! or `--shards` asked for. An explicit `--seeds 1` is honoured.

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
            &["chaos", "--scale", "tiny", "--seeds", "2"][..],
            "takes no --seeds or --shards",
        ),
        (
            &["chaos", "--check", "--shards", "2"][..],
            "takes no --seeds or --shards",
        ),
        (
            &["irn", "--scale", "tiny", "--seeds", "1"][..],
            "takes no --seeds or --shards",
        ),
        (
            &["irn", "--scale", "tiny", "--shards", "auto"][..],
            "takes no --seeds or --shards",
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
            "'tournament --check' takes no --shards",
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
