//! Out-of-range flag values are named usage errors (exit 2), never
//! panics.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("run binary")
}

fn assert_usage_error(out: &Output, flag: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(
        stderr.contains(flag),
        "error does not name {flag}:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "panicked:\n{stderr}");
}

#[test]
fn trace_rejects_zero_arboricity() {
    let out = run(
        env!("CARGO_BIN_EXE_trace"),
        &["--algo", "ka", "--n", "100", "--a", "0"],
    );
    assert_usage_error(&out, "--a");
}

#[test]
fn perf_rejects_zero_reps() {
    let out = run(env!("CARGO_BIN_EXE_perf"), &["--reps", "0"]);
    assert_usage_error(&out, "--reps");
}
