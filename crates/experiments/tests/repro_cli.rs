//! `repro` refuses arguments it would otherwise silently ignore: a
//! `--check` on an experiment that has no check mode used to run the
//! plain sweep and exit 0 (a gate that gates nothing), and a zero
//! `--window-ms` used to print an all-zero table.

use std::process::Command;

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
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: no table is printed");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
    }
}
