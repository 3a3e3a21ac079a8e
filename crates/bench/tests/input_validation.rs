//! Out-of-range flag values and unwritable output paths are named
//! errors (exit 2), never panics.

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

/// A scratch path unique to this test process and `name`.
fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("input-validation-{}-{name}", std::process::id()))
}

#[test]
fn suite_metrics_creates_its_parent_directory() {
    let root = scratch("metrics-dir");
    let prom = root.join("missing/dir/m.prom");
    let out = run(
        env!("CARGO_BIN_EXE_table2"),
        &[
            "--quick",
            "--seeds",
            "1",
            "--metrics",
            prom.to_str().unwrap(),
            "T2.1",
        ],
    );
    let ok = out.status.success()
        && prom.is_file()
        && benchharness::spec::metrics_jsonl_path(&prom).is_file();
    let _ = std::fs::remove_dir_all(&root);
    assert!(ok, "stderr:\n{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn suite_metrics_path_through_a_file_is_a_named_error() {
    // A regular file where a directory is needed fails even for root.
    let file = scratch("metrics-file");
    std::fs::write(&file, "not a directory").unwrap();
    let prom = file.join("m.prom");
    let out = run(
        env!("CARGO_BIN_EXE_table2"),
        &[
            "--quick",
            "--seeds",
            "1",
            "--metrics",
            prom.to_str().unwrap(),
            "T2.1",
        ],
    );
    let _ = std::fs::remove_file(&file);
    assert_usage_error(&out, "metrics");
}
